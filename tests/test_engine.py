import dataclasses
import heapq
import random

import pytest

from conftest import (
    assert_one_core_per_job, compute_load_ns, core_next_release_ns, core_static_utilization,
    dynamic_terms, edf_pick, idle_gaps_between_jobs, motivational_config, wake_rule_violations,
)
from dense_oracle import closed_form_f_max, closed_form_power, integrate_trace_energy

from coresleep import policies
from coresleep.engine import (
    NEVER, SLEEPING, UTIL_UNIT, EnergyLedger, EngineError, SimConfig, Simulator, run,
    write_trace_csv,
)
from coresleep.harness import SweepSpec, _instance_for, repetition
from coresleep.partition import Assignment, ltf_partition
from coresleep.policies import PolicyKind
from coresleep.power import sleep_threshold, total_power_at_speed
from coresleep.workload import NS_PER_MS, Job, Task, TaskSet, task_from_ms, uunifast

MS = NS_PER_MS


class TestEdfPick:
    def test_earliest_deadline(self):
        t2 = task_from_ms(2, 4.0, 0.4)
        t3 = task_from_ms(3, 2.0, 0.2)
        jobs = [Job(t2, 1, t2.wcet_ns), Job(t3, 1, t3.wcet_ns)]
        assert edf_pick(jobs).task_id == 3

    def test_single(self):
        t = task_from_ms(5, 2.0, 0.2)
        job = Job(t, 1, t.wcet_ns)
        assert edf_pick([job]) is job

    def test_tie_by_id(self):
        a = task_from_ms(3, 2.0, 0.2)
        b = task_from_ms(5, 2.0, 0.3)
        assert edf_pick([Job(b, 1, 1.0), Job(a, 1, 1.0)]).task_id == 3

    def test_empty(self):
        assert edf_pick([]) is None


class TestEmptySystem:
    def test_no_work_means_no_energy(self, params):
        cfg = SimConfig(params=params, cores=3, duration_ms=50.0, policy=PolicyKind.LA_DVS,
                        collect_trace=True)
        ledger, trace = run(cfg, TaskSet(tasks=()), ltf_partition(TaskSet(tasks=()), 3))
        assert ledger.total_j == 0.0
        assert ledger.wake_count == 0
        assert [(t, c) for (t, c, ev, _x, _d) in trace if ev == "sleep"] == [(0, 0), (0, 1), (0, 2)]


def test_ledger_totals_sum_left_to_right():
    """The totals add in plain float arithmetic, left to right, on every
    Python version: builtin sum() compensates since 3.12 and would give 1.0."""
    ledger = EnergyLedger(busy_j=[1e16, 1.0, -1e16], idle_j=[0.0] * 3)
    assert ledger.busy_total_j == ledger.total_j == 0.0
    assert EnergyLedger(busy_j=[0.0] * 3, idle_j=[1e16, 1.0, -1e16]).idle_total_j == 0.0


class TestMotivationalScenario:
    """The hand-computable two-core schedule under all three policies."""

    def test_pure_dvs_speed(self, params, motivational_tasks, motivational_assignment):
        cfg = motivational_config(params, PolicyKind.PURE_DVS)
        ledger, trace = run(cfg, motivational_tasks, motivational_assignment)
        speeds = [(t, float(d)) for (t, _c, ev, _x, d) in trace if ev == "speed_change"]
        assert speeds == [(0, 0.3)]
        assert ledger.deadline_miss_count == 0

    def test_la_dvs_idle_and_no_sleep(self, params, motivational_tasks, motivational_assignment):
        cfg = motivational_config(params, PolicyKind.LA_DVS)
        ledger, trace = run(cfg, motivational_tasks, motivational_assignment)
        speeds = [(t, float(d)) for (t, _c, ev, _x, d) in trace if ev == "speed_change"]
        assert speeds == [(0, 0.4)]
        assert not any(ev in ("sleep", "wake") for (_t, _c, ev, _x, _d) in trace)
        assert ledger.wake_count == 0
        # core 0 idles exactly 0.5 ms at the end of each 2 ms period
        gaps = idle_gaps_between_jobs(trace, 0)
        assert len(gaps) == 7  # gaps inside [0, 16) between the 8 jobs
        assert all(g == 500_000 for g in gaps)
        # two short idle intervals per hyperperiod on each core, all failed
        assert ledger.failed_sleep_count == 16

    def test_la_dvs_energy_level(self, params, derived, motivational_tasks, motivational_assignment):
        cfg = motivational_config(params, PolicyKind.LA_DVS)
        ledger, _ = run(cfg, motivational_tasks, motivational_assignment)
        expected = 2 * total_power_at_speed(params, derived, 0.4) * 16e-3
        assert ledger.total_j == pytest.approx(expected, rel=1e-6)

    def test_reallocation_sequence(self, params, motivational_tasks, motivational_assignment):
        cfg = motivational_config(params, PolicyKind.LA_REALLOC)
        sim = Simulator(cfg, motivational_tasks, motivational_assignment)
        ledger, trace = sim.run()
        # task 3 moves from core 1 to core 0 exactly at its second release
        reallocs = [(t, c, task, d) for (t, c, ev, task, d) in trace if ev == "realloc"]
        assert reallocs == [(2 * MS, 0, 3, "from=1")]
        # the move keeps the destination at the critical scale and the
        # drained core at the actual-time utilization of its remaining task
        (u_static, u_dyn_dest, u_dyn_src, s_before, s_after) = ledger.realloc_checks[0]
        assert u_static == pytest.approx(0.4, abs=1e-12)
        assert u_dyn_dest == pytest.approx(0.4, abs=1e-12)
        assert u_dyn_src == pytest.approx(0.1, abs=1e-12)
        assert s_after <= s_before
        assert s_after == 0.4
        # core 1 sleeps right after the shift and wakes for the next release
        assert (2 * MS, 1, "sleep", None, "") in trace
        assert (4 * MS, 1, "wake", None, "") in trace
        assert ledger.wake_count == 3  # wakes at 4, 8, 12 ms within 16 ms
        assert ledger.switch_j == 3 * cfg.e_sw_j
        assert ledger.deadline_miss_count == 0
        # steady state: everything fits core 0, core 1 only serves task 2
        assert sorted(r.task.id for r in sim.cores[0].members) == [1, 3]

    def test_reallocation_beats_plain_leakage_aware(self, params, motivational_tasks,
                                                    motivational_assignment):
        led_realloc, _ = run(motivational_config(params, PolicyKind.LA_REALLOC),
                             motivational_tasks, motivational_assignment)
        led_ladvs, _ = run(motivational_config(params, PolicyKind.LA_DVS),
                           motivational_tasks, motivational_assignment)
        assert led_realloc.total_j < led_ladvs.total_j

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_energy_matches_dense_integration(self, params, policy, motivational_tasks,
                                              motivational_assignment):
        cfg = motivational_config(params, policy)
        ledger, trace = run(cfg, motivational_tasks, motivational_assignment)
        oracle = integrate_trace_energy(trace, 16 * MS, 2, params, cfg.e_sw_j)
        assert ledger.total_j == pytest.approx(oracle, rel=1e-3)


class TestAnalyticOracle:
    """With ``la_dvs``, actual times equal to the worst case and E_sw = 1 J,
    the sleep threshold (about 7.2 s) lies past a 1 s horizon.  No core
    sleeps and the dynamic sums never move, so the speed never changes and
    the energy is exactly m * P(s) * T, s = min(1, max(largest static core
    utilization, s_crit)).  The bounds are set by the power table's
    interpolation error: measured worst 4.2e-9 at s_crit (bound 1e-8) and
    1.29e-8 above it (m = 1, U = 0.5; bound 3e-8, above the table's
    2.19e-8 worst).  Evaluating the power in closed form in place of the
    table would tighten them to float round-off."""

    @staticmethod
    def gap_to_closed_form(params, derived, power_table, m, u, seed):
        """Relative gap of one run's energy to m * P(s) * T; also returns s."""
        spec = SweepSpec(axis="U", values=(u,), m=m, e_sw_j=1.0, cc_ratio=1.0,
                         duration_ms=1000.0, repetitions=1, base_seed=seed)
        task_set, assignment, cfg = repetition(spec, 0, 0, params, power_table)
        assert all(assignment.core_tasks), seed   # no core starts asleep
        sim = Simulator(dataclasses.replace(cfg, policy=PolicyKind.LA_DVS, collect_trace=True),
                        task_set, assignment)
        assert sim.t_th_ns > sim.duration_ns
        ledger, trace = sim.run()
        events = [row[2] for row in trace]
        assert events.count("speed_change") == 1, seed
        assert "sleep" not in events and "wake" not in events, seed
        assert ledger.switch_j == 0.0 and ledger.deadline_miss_count == 0
        s = min(1.0, max(max(assignment.core_utilization), derived.critical_scale))
        expected = m * closed_form_power(params, closed_form_f_max(params), s) * 1.0
        return abs(ledger.total_j - expected) / expected, s

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_constant_speed_energy_is_closed_form(self, params, derived, power_table, m):
        for seed in range(1, 11):
            gap, _s = self.gap_to_closed_form(params, derived, power_table, m, 0.3, seed)
            assert gap <= 1e-8, seed

    @pytest.mark.parametrize("m, u", [(1, 0.5), (1, 0.7), (2, 0.6), (4, 0.5)])
    def test_speed_above_critical_energy_is_closed_form(self, params, derived, power_table,
                                                        m, u):
        for seed in range(1, 11):
            gap, s = self.gap_to_closed_form(params, derived, power_table, m, u, seed)
            assert s > derived.critical_scale, seed
            assert gap <= 3e-8, seed


class TestIdlePowerReading:
    """The model's idle-power reading (README, "Idle power"): the sleep
    threshold divides E_sw by the power at the minimum speed, while an awake
    idle core is charged the power at the global speed.  At the critical
    speed and E_sw = 0.5 mJ a 2.5 ms gap lies between the break-even at that
    speed (1.92 ms) and t_th (3.59 ms): the core stays awake for 0.65 mJ,
    where sleeping would cost 0.5 mJ."""

    def test_gap_below_threshold_stays_awake_at_global_speed_power(self, params, derived):
        s, e_sw = derived.critical_scale, 5e-4
        p_crit = total_power_at_speed(params, derived, s)
        assert e_sw / p_crit < 2.5e-3 < sleep_threshold(params, derived, e_sw)
        tasks = TaskSet(tasks=(task_from_ms(0, 10.0, 7.5 * s),))
        cfg = SimConfig(params=params, cores=1, duration_ms=20.0, e_sw_j=e_sw,
                        cc_mean_ratio=1.0, policy=PolicyKind.LA_DVS, collect_trace=True)
        ledger, trace = run(cfg, tasks, ltf_partition(tasks, 1))
        assert [t for (t, _c, ev, _x, _d) in trace if ev == "complete"] == [7_500_000, 17_500_000]
        assert not any(ev == "sleep" for (_t, _c, ev, _x, _d) in trace)
        assert ledger.failed_sleep_count == 2 and ledger.wake_count == 0
        # Both gaps are charged P(s_crit); the power table's interpolation
        # error puts the ledger 5.2e-9 relative from the closed form.
        assert ledger.idle_j[0] == pytest.approx(2 * p_crit * 2.5e-3, rel=1e-8)


class TestDeterminism:
    def test_bit_identical_repeat(self, params, power_table):
        from coresleep.workload import generate_task_set

        ts = generate_task_set(8, 0.8, seed=21)
        asg = ltf_partition(ts, 2)
        cfg = dict(params=params, cores=2, duration_ms=300.0, policy=PolicyKind.LA_REALLOC,
                   seed=21, power_table=power_table, collect_trace=True)
        led1, tr1 = run(SimConfig(**cfg), ts, asg)
        led2, tr2 = run(SimConfig(**cfg), ts, asg)
        assert tr1 == tr2
        assert led1.busy_j == led2.busy_j
        assert led1.idle_j == led2.idle_j
        assert led1.total_j == led2.total_j
        assert led1.wake_count == led2.wake_count


class TestLedgerAccounting:
    def test_total_is_sum_of_parts(self, params, power_table):
        from coresleep.workload import generate_task_set

        ts = generate_task_set(6, 0.9, seed=3)
        asg = ltf_partition(ts, 2)
        cfg = SimConfig(params=params, cores=2, duration_ms=500.0, policy=PolicyKind.LA_REALLOC,
                        seed=3, power_table=power_table)
        ledger, _ = run(cfg, ts, asg)
        assert ledger.total_j == sum(ledger.busy_j) + sum(ledger.idle_j) + ledger.switch_j
        assert all(e >= 0 for e in ledger.busy_j + ledger.idle_j)
        assert ledger.switch_j == ledger.wake_count * cfg.e_sw_j

    def test_all_sleeping_interval_adds_nothing(self, params):
        # one tiny task with a very long period: the gap sleeps end to end
        ts = TaskSet(tasks=(task_from_ms(0, 100.0, 0.1),))
        asg = ltf_partition(ts, 2)
        cfg = SimConfig(params=params, cores=2, duration_ms=100.0, e_sw_j=1e-5,
                        policy=PolicyKind.LA_DVS, collect_trace=True)
        ledger, trace = run(cfg, ts, asg)
        # core 1 has no tasks and sleeps at t=0 forever
        assert ledger.busy_j[1] == 0.0 and ledger.idle_j[1] == 0.0
        sleeps = [t for (t, c, ev, _x, _d) in trace if ev == "sleep" and c == 0]
        assert sleeps  # core 0 sleeps through the long gap
        oracle = integrate_trace_energy(trace, 100 * MS, 2, params, cfg.e_sw_j)
        assert ledger.total_j == pytest.approx(oracle, rel=1e-3)


class TestJobIntegrity:
    @pytest.mark.parametrize("seed", range(8))
    def test_one_core_per_job(self, params, power_table, seed):
        from coresleep.workload import generate_task_set

        ts = generate_task_set(7, 1.0, seed=seed)
        asg = ltf_partition(ts, 2)
        cfg = SimConfig(params=params, cores=2, duration_ms=400.0, policy=PolicyKind.LA_REALLOC,
                        seed=seed, power_table=power_table, collect_trace=True)
        _, trace = run(cfg, ts, asg)
        assert_one_core_per_job(trace)

    @pytest.mark.parametrize("policy", [PolicyKind.LA_DVS, PolicyKind.LA_REALLOC])
    def test_no_misses_with_leakage_aware_policies(self, params, power_table, policy):
        from coresleep.workload import generate_task_set

        for seed in range(20):
            ts = generate_task_set(8, 1.2, seed=seed)
            asg = ltf_partition(ts, 2)
            cfg = SimConfig(params=params, cores=2, duration_ms=500.0, policy=policy,
                            seed=seed, power_table=power_table)
            ledger, _ = run(cfg, ts, asg)
            assert ledger.deadline_miss_count == 0


class TestShiftOffSleepingCore:
    def test_stale_wake_charges_nothing(self, params, power_table):
        """A job released on a sleeping core can be reallocated away in the
        same instant; the core is then left without work and keeps sleeping,
        with no wake row and no switching energy.  Seed 26 hits this four
        times: the wake rule holds on the trace, and the dense-integration
        oracle confirms the accounting."""
        from coresleep.workload import generate_task_set

        ts = generate_task_set(6, 0.3, seed=26)
        asg = ltf_partition(ts, 2)
        cfg = SimConfig(params=params, cores=2, duration_ms=1000.0, e_sw_j=5e-4,
                        cc_mean_ratio=0.5, policy=PolicyKind.LA_REALLOC, seed=26,
                        power_table=power_table, collect_trace=True)
        ledger, trace = run(cfg, ts, asg)

        asleep = {}
        shifts_off_sleeping = 0
        for t, c, ev, task, detail in trace:
            if ev == "sleep":
                asleep[c] = True
            elif ev == "wake":
                asleep[c] = False
            elif ev == "realloc" and asleep.get(int(detail.split("=")[1])):
                shifts_off_sleeping += 1
        assert shifts_off_sleeping == 4
        assert wake_rule_violations(trace) == []

        wake_rows = sum(1 for (_t, _c, ev, _x, _d) in trace if ev == "wake")
        assert wake_rows == ledger.wake_count
        oracle = integrate_trace_energy(trace, 1000 * MS, 2, params, cfg.e_sw_j)
        assert ledger.total_j == pytest.approx(oracle, rel=1e-3)


class TestPairedDraws:
    def test_identical_actual_times_across_policies(self, params, power_table):
        """Paired comparisons rely on every policy seeing the same drawn
        execution time for each job; the draw streams are keyed by (seed,
        task), not by schedule order."""
        from coresleep.workload import generate_task_set

        ts = generate_task_set(8, 1.0, seed=13)
        asg = ltf_partition(ts, 2)
        draws = []
        for policy in PolicyKind:
            cfg = SimConfig(params=params, cores=2, duration_ms=400.0, policy=policy,
                            seed=13, power_table=power_table,
                            collect_trace=True)
            _, trace = run(cfg, ts, asg)
            draws.append([(t, task, d) for (t, _c, ev, task, d) in trace if ev == "release"])
        assert draws[0] == draws[1] == draws[2]


class TestTraceCsv:
    def test_write(self, tmp_path, params, motivational_tasks, motivational_assignment):
        cfg = motivational_config(params, PolicyKind.LA_REALLOC)
        _, trace = run(cfg, motivational_tasks, motivational_assignment)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_ns,core,event,task,detail"
        assert any(",realloc," in line for line in lines)


class TestConfigValidation:
    def test_bad_values(self, params):
        with pytest.raises(ValueError):
            SimConfig(params=params, cores=0)
        with pytest.raises(ValueError):
            SimConfig(params=params, duration_ms=0.0)
        with pytest.raises(ValueError):
            SimConfig(params=params, e_sw_j=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SimConfig(params=params, duration_ms=bad)
            with pytest.raises(ValueError):
                SimConfig(params=params, e_sw_j=bad)
        with pytest.raises(ValueError):
            SimConfig(params=params, cc_mean_ratio=0.0)
        # a horizon that rounds to 0 ns
        with pytest.raises(ValueError):
            SimConfig(params=params, duration_ms=1e-7)
        for bad in (0.0, -1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                SimConfig(params=params, critical_scale_override=bad)
        for bad in (-5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SimConfig(params=params, t_th_ms_override=bad)

    def test_boundary_values_accepted(self, params):
        SimConfig(params=params, duration_ms=1e-6, critical_scale_override=1.0,
                  t_th_ms_override=0.0)

    def test_core_count_must_match_assignment(self, params, motivational_tasks,
                                              motivational_assignment):
        cfg = SimConfig(params=params, cores=3)
        with pytest.raises(ValueError):
            Simulator(cfg, motivational_tasks, motivational_assignment)

    # The motivational partition is core_tasks ((1,), (2, 3)).
    @pytest.mark.parametrize("core_tasks, task", [
        pytest.param(((1,), (3,)), 2, id="task-on-no-core"),
        pytest.param(((1, 7), (2, 3)), 7, id="id-not-in-task-set"),
        pytest.param(((1, 3), (2, 3)), 3, id="task-listed-twice"),
    ])
    def test_assignment_must_match_task_set(self, params, motivational_tasks,
                                            motivational_assignment, core_tasks, task):
        assert motivational_assignment.core_tasks == ((1,), (2, 3))
        bad = Assignment(core_tasks=core_tasks, core_utilization=(0.0, 0.0))
        with pytest.raises(ValueError, match=f"task {task}"):
            Simulator(SimConfig(params=params, cores=2), motivational_tasks, bad)


def at_dispatch_fixed_point(sim, core, t_ns):
    """True when dispatching ``core`` at ``t_ns`` would change nothing: an
    awake idle core's gap to its next release is below the sleep threshold,
    and a running core runs the reference EDF pick of its queue, which is
    the top of its ready heap."""
    if core.state == SLEEPING:
        return True
    job = edf_pick([entry[2] for entry in core.ready])
    if job is None:
        return core.running is None and bool(core.nexts) and core.nexts[0] - t_ns < sim.t_th_ns
    return job is core.running is core.ready[0][2]


# The engine's sums, as floats, against the float re-sums of the policies
# module and conftest: over every check of TestIncrementalState the largest
# gap measured was 6.1e-16 relative, and 1.1e-19 absolute on sums below 1e-3
# (each term is a multiple of 2**-62, so a tiny sum keeps fewer significant
# bits).
SUM_REL_BOUND = 1e-15
SUM_ABS_BOUND = 1e-18


def check_core_sums(core, t_ns, last_cc_ns):
    """A core's integer sums equal fresh integer re-sums of its members'
    terms, each term is the reference utilization in ``UTIL_UNIT`` units
    (from the task's worst case and ``last_cc_ns``, the actual time of its
    latest completed job by task id), and the sums as floats agree with the
    float re-sums."""
    where = (t_ns, core.index)
    assert core.dyn_util == sum(run.term for run in core.members), where
    assert core.static_util == sum(run.full for run in core.members), where
    terms = dynamic_terms(core.members, t_ns, last_cc_ns)
    for run, term in zip(core.members, terms):
        assert run.term == round(policies.task_dynamic_utilization(*term) * UTIL_UNIT), where
    for exact, ref in ((core.dyn_util, policies.core_dynamic_utilization(terms)),
                       (core.static_util, core_static_utilization(core))):
        assert abs(exact / UTIL_UNIT - ref) <= SUM_REL_BOUND * ref + SUM_ABS_BOUND, where


def check_max_util(sim, t_ns):
    assert sim.max_util == max(core.dyn_util for core in sim.cores), t_ns


def check_due(sim, core, t_ns):
    """A core's due work fits its state: while running, a finite value not
    behind the work clock, and its one entry in the completion heap; no
    entry otherwise; and a sleeping core runs nothing and has no ready work,
    since a batch that leaves work on it wakes it."""
    where = (t_ns, core.index)
    entries = [due_w for due_w, i in sim._due if i == core.index]
    if core.running is not None:
        assert sim.work <= core.due_w < NEVER, where
        assert entries == [core.due_w], where
    else:
        assert entries == [], where
    if core.state == SLEEPING:
        assert core.running is None and not core.ready, where


def check_index_state(home, run, t_ns, released):
    """The job indices the reallocation hook reads fit the home queue and
    ``released``, the jobs of the current batch by (task id, index), which
    join their queues at the end of the batch: the job released at t is one
    of them and not queued; the task is pinned (``done < next_index - 2``)
    exactly when an older job of it is queued; and a member counts as
    pending (``done < next_index - 1``) exactly when its job before the next
    release is queued or was released in this batch."""
    queued = {(job.task_id, job.index): job for _deadline, _task_id, job in home.ready}
    where = (t_ns, run.task.id)
    latest = (run.task.id, run.next_index - 1)
    assert latest not in queued and latest in released, where
    assert released[latest].arrival_ns == t_ns, where
    older = any(task_id == run.task.id and index < run.next_index - 1
                for task_id, index in queued)
    assert (run.done < run.next_index - 2) == older, where
    for member in home.members:
        key = (member.task.id, member.next_index - 1)
        pending = key in queued or key in released
        assert (member.done < member.next_index - 1) == pending, (where, member.task.id)


def check_completion_heap(sim, t_ns):
    """The completion heap holds exactly the (due_w, index) pair of each
    running core, in heap order, so its top is the next completion."""
    due = sim._due
    running = [(core.due_w, core.index) for core in sim.cores if core.running is not None]
    assert sorted(due) == sorted(running), t_ns
    assert all(due[(k - 1) // 2] <= due[k] for k in range(1, len(due))), t_ns


class CheckedSimulator(Simulator):
    """Checks the engine's incremental state against a full rescan: every
    core's utilization sums and the tracked largest sum after each
    reallocation attempt, each completion and each batch's speed recompute;
    after each recompute, that the speed is the policy's rule applied to the
    largest sum re-summed from the members' terms; at each completion, that
    the running job is its queue's top; before each reallocation attempt,
    the job indices the hook reads against the home queue and the batch's
    released jobs; the pending load handed to ``compute_dt_ns`` (bit for
    bit) and every option handed to ``select_core``; and between event
    batches the largest sum, each core's next release and due work (no
    completion entry while idle or asleep, and an empty queue while asleep),
    that the completion heap holds exactly one entry per running core, in
    heap order, that no core would act if it were dispatched, and that the
    batch handled an event.  The
    fixed-point check reads numbers and a reference, not engine flags: an
    awake idle core's gap to its next release against the sleep threshold,
    and a running core's job against the reference EDF pick of its queue.
    It counts its ``_accrue`` and ``_recompute_speed`` calls, so a test can
    tell that the between-batch checks ran.  The reference terms read the
    actual time of each task's latest completed job, which it records itself
    at each completion."""

    loads = selects = accrues = recomputes = 0
    batch_events = None   # events the current batch handled; None before the first

    def __init__(self, *args):
        super().__init__(*args)
        self.last_cc_ns = {}   # task id -> actual time of its latest completed job
        self.released = {}     # (task id, index) -> job, of the current batch

    def _release(self, run, t_ns):
        self.batch_events += 1
        entry = super()._release(run, t_ns)
        job = entry[2]
        self.released[job.task_id, job.index] = job
        return entry

    def _complete(self, core, t_ns):
        self.batch_events += 1
        job = core.running
        assert core.ready[0][2] is job, (t_ns, core.index)
        self.last_cc_ns[job.task_id] = job.cc_ns
        super()._complete(core, t_ns)
        self.check_sums(t_ns)

    def _wake(self, core, t_ns):
        self.batch_events += 1
        super()._wake(core, t_ns)

    def _recompute_speed(self, t_ns):
        self.recomputes += 1
        super()._recompute_speed(t_ns)
        self.check_sums(t_ns)
        u_max = max(sum(run.term for run in core.members) for core in self.cores)
        assert self.speed == policies.policy_speed(
            self.cfg.policy, u_max / UTIL_UNIT, self.min_scale, self.critical_scale), t_ns

    def check_sums(self, t_ns):
        for core in self.cores:
            check_core_sums(core, t_ns, self.last_cc_ns)
        check_max_util(self, t_ns)

    def _reallocate(self, run, t_ns):
        compute_dt_ns, select_core = policies.compute_dt_ns, policies.select_core
        home = self.cores[run.core]
        check_index_state(home, run, t_ns, self.released)

        def checked_load(gap_ns, load_ns, critical_scale):
            assert load_ns == compute_load_ns(home, t_ns), (t_ns, home.index)
            self.loads += 1
            return compute_dt_ns(gap_ns, load_ns, critical_scale)

        def checked(u_i, options, critical_scale):
            for u_dyn, idx, u_static in options:
                core = self.cores[idx]
                check_core_sums(core, t_ns, self.last_cc_ns)
                assert u_dyn == core.dyn_util / UTIL_UNIT, (t_ns, idx)
                assert u_static == core.static_util / UTIL_UNIT, (t_ns, idx)
            self.selects += 1
            return select_core(u_i, options, critical_scale)

        policies.compute_dt_ns, policies.select_core = checked_load, checked
        try:
            super()._reallocate(run, t_ns)
        finally:
            policies.compute_dt_ns, policies.select_core = compute_dt_ns, select_core
        self.check_sums(t_ns)

    def _accrue(self, t0_ns, t1_ns):
        self.accrues += 1
        if self.batch_events is not None:  # the first batch, at t = 0, has not run yet
            assert self.batch_events > 0, t0_ns
            check_max_util(self, t0_ns)
            check_completion_heap(self, t0_ns)
            for core in self.cores:
                assert at_dispatch_fixed_point(self, core, t0_ns), (t0_ns, core.index)
                top = core.nexts[0] if core.nexts else None
                assert top == core_next_release_ns(core, t0_ns), (t0_ns, core.index)
                check_due(self, core, t0_ns)
        self.batch_events = 0
        self.released = {}
        super()._accrue(t0_ns, t1_ns)


def harmonic_instance(seed, m):
    """Task set with periods from {5, 10, 20, 40} ms, so releases on
    different cores keep coinciding, partitioned onto ``m`` cores."""
    rng = random.Random(f"harmonic:{seed}")
    n = rng.randint(m + 1, 3 * m)
    u_tot = rng.uniform(0.2, 0.6) * m
    utils = uunifast(n, u_tot, rng)
    while not all(0.0 < u <= 1.0 for u in utils):
        utils = uunifast(n, u_tot, rng)
    tasks = []
    for i, u in enumerate(utils):
        period_ns = rng.choice((5, 10, 20, 40)) * MS
        tasks.append(Task(id=i, period_ns=period_ns, wcet_ns=u * period_ns))
    task_set = TaskSet(tasks=tuple(tasks))
    return task_set, ltf_partition(task_set, m)


def harmonic_config(params, power_table, seed, m):
    """Traced ``la_realloc`` run of 400 ms for ``harmonic_instance``."""
    return SimConfig(params=params, cores=m, duration_ms=400.0,
                     cc_mean_ratio=(0.2, 0.5, 0.8)[seed % 3], policy=PolicyKind.LA_REALLOC,
                     seed=seed, power_table=power_table, collect_trace=True)


class TestIncrementalState:
    SEEDS = range(1, 21)

    @pytest.mark.parametrize("policy", list(PolicyKind))
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_cached_utilization_matches_rescan(self, params, power_table, m, policy):
        commits = 0
        for seed in self.SEEDS:
            u = (0.2, 0.4, 0.6)[seed % 3]
            task_set, assignment = _instance_for(seed, (10, 20), u * m, m, (10.0, 100.0), 50)
            cfg = SimConfig(params=params, cores=m, duration_ms=300.0, policy=policy, seed=seed,
                            power_table=power_table, collect_trace=True)
            ledger, trace = CheckedSimulator(cfg, task_set, assignment).run()
            plain_ledger, plain_trace = run(cfg, task_set, assignment)
            assert trace == plain_trace and ledger.total_j == plain_ledger.total_j
            commits += ledger.realloc_count
        if policy is PolicyKind.LA_REALLOC and m > 1:
            assert commits > 0

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_harmonic_periods_match_rescan(self, params, power_table, m):
        # Coinciding releases on other cores raise the speed at the instant
        # of a commit; the commit check must compare against that speed.
        commits = loads = selects = 0
        for seed in self.SEEDS:
            task_set, assignment = harmonic_instance(seed, m)
            cfg = harmonic_config(params, power_table, seed, m)
            sim = CheckedSimulator(cfg, task_set, assignment)
            ledger, trace = sim.run()
            plain_ledger, plain_trace = run(cfg, task_set, assignment)
            assert trace == plain_trace and ledger.total_j == plain_ledger.total_j
            assert ledger.deadline_miss_count == 0
            assert wake_rule_violations(trace) == [], seed
            for _u_st, _u_dy, _u_src, s_before, s_after in ledger.realloc_checks:
                assert s_after <= s_before + 1e-12
            commits += ledger.realloc_count
            loads += sim.loads
            selects += sim.selects
        assert commits > 0 and loads >= selects >= commits


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_checked_hooks_run_once_per_batch(params, power_table, policy):
    """The between-batch checks of ``CheckedSimulator`` live in its
    ``_accrue`` and ``_recompute_speed``: each runs once per batch (an
    instant below the horizon with a release or a completion), plus the
    closing accrue and the starting recompute at t = 0."""
    task_set, assignment = _instance_for(3, (10, 20), 1.6, 4, (10.0, 100.0), 50)
    cfg = SimConfig(params=params, cores=4, duration_ms=300.0, policy=policy, seed=3,
                    power_table=power_table, collect_trace=True)
    sim = CheckedSimulator(cfg, task_set, assignment)
    _ledger, trace = sim.run()
    batches = {t for t, _c, event, _task, _detail in trace
               if event in ("release", "complete") and t < sim.duration_ns}
    assert len(batches) > 100
    assert sim.accrues == sim.recomputes == len(batches) + 1


SUM_EVENTS = {"release", "realloc", "complete"}


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_harmonic_speed_is_set_once_per_instant(params, power_table, m):
    """After the starting speed, an instant has at most one speed_change
    row: after every row that moves the sums (release, reallocation,
    completion) and before its wakes and dispatches."""
    for seed in TestIncrementalState.SEEDS:
        task_set, assignment = harmonic_instance(seed, m)
        _, trace = run(harmonic_config(params, power_table, seed, m), task_set, assignment)
        first = [row[2] for row in trace].index("speed_change")
        instants = {}
        for t_ns, _core, event, _task, _detail in trace[first + 1:]:
            instants.setdefault(t_ns, []).append(event)
        for t_ns, events in instants.items():
            if "speed_change" in events:
                k = events.index("speed_change")
                assert set(events[:k]) <= SUM_EVENTS, (seed, t_ns, events)
                assert not {"speed_change", *SUM_EVENTS} & set(events[k + 1:]), (seed, t_ns)


class TestBacklogGuard:
    def test_late_completion_keeps_successor_worst_case(self, params, power_table):
        """A job that finishes after its successor's release must leave the
        task's term at wcet/P: the pending successor still counts at its
        worst case.  Only the successor's own completion drops it to cc/P."""
        task = task_from_ms(0, 10.0, 6.0)
        task_set = TaskSet(tasks=(task,))
        cfg = SimConfig(params=params, cores=1, duration_ms=100.0, policy=PolicyKind.PURE_DVS,
                        power_table=power_table)
        sim = Simulator(cfg, task_set, ltf_partition(task_set, 1))
        task_run, core = sim.runs[0], sim.cores[0]
        sim._recompute_speed(0)
        heapq.heappush(core.ready, sim._release(task_run, 0))
        sim._dispatch(core, 0)
        first = core.running
        assert first.cc_ns < task.wcet_ns
        heapq.heappush(core.ready, sim._release(task_run, 10 * MS))
        assert sim._take_due(11 * MS, 0.0) == [core.index]
        sim._complete(core, 11 * MS)
        assert core.running is None and sim._due == []
        assert first.index == 1 and task_run.next_index == 3
        assert task_run.term == task_run.full == core.dyn_util
        (term,) = dynamic_terms([task_run], 11 * MS, {0: first.cc_ns})
        assert term == (task, None)
        assert task_run.term == round(policies.task_dynamic_utilization(*term) * UTIL_UNIT)

        sim._dispatch(core, 11 * MS)
        second = core.running
        assert second.index == 2
        sim._complete(core, 15 * MS)
        assert core.dyn_util == task_run.term == round(second.cc_ns / task.period_ns * UTIL_UNIT)
        assert task_run.term < task_run.full


class TestCompletionHeap:
    def test_preempt_and_resume_keep_one_entry_per_running_core(self, params):
        """Drives a run by hand at speed 1 (work and time advance alike), as
        ``run`` would: core 0 holds tasks 0 (10 ms period, 4 ms) and 1 (2 ms,
        0.5 ms), core 1 holds task 2 (10 ms, 3 ms).  Task 1's job released at
        2 ms preempts task 0, whose entry leaves the heap; task 0 resumes at
        2.5 ms under one new entry, and core 1's entry stays put throughout."""
        task_set = TaskSet(tasks=(task_from_ms(0, 10.0, 4.0), task_from_ms(1, 2.0, 0.5),
                                  task_from_ms(2, 10.0, 3.0)))
        assignment = Assignment(core_tasks=((0, 1), (2,)), core_utilization=(0.45, 0.3))
        cfg = SimConfig(params=params, cores=2, duration_ms=10.0, cc_mean_ratio=1.0,
                        policy=PolicyKind.LA_DVS, critical_scale_override=1.0)
        sim = Simulator(cfg, task_set, assignment)
        runs, (core0, core1) = sim.runs, sim.cores
        sim._recompute_speed(0)
        assert sim.speed == 1.0
        t_prev = 0

        def step(t_ns, released=(), done=()):
            """One batch at ``t_ns``: advance the clocks, release, complete
            the cores in ``done``, queue the released jobs and dispatch both
            cores."""
            nonlocal t_prev
            work0 = sim.work
            sim._accrue(t_prev, t_ns)
            entries = [sim._release(runs[task_id], t_ns) for task_id in released]
            if done:
                assert sim._take_due(t_ns - t_prev, work0) == list(done)
                for i in done:
                    sim._complete(sim.cores[i], t_ns)
            for entry in entries:
                heapq.heappush(sim.cores[runs[entry[1]].core].ready, entry)
            for core in sim.cores:
                sim._dispatch(core, t_ns)
            t_prev = t_ns
            check_completion_heap(sim, t_ns)
            return sorted(sim._due)

        assert step(0, released=(0, 1, 2)) == [(0.5 * MS, 0), (3 * MS, 1)]
        assert core0.running.task_id == 1 and core1.running.task_id == 2
        assert step(MS // 2, done=(0,)) == [(3 * MS, 1), (4.5 * MS, 0)]
        first = core0.running
        assert first.task_id == 0
        assert step(2 * MS, released=(1,)) == [(2.5 * MS, 0), (3 * MS, 1)]
        assert core0.running.task_id == 1 and first.remaining_ns == 2.5 * MS
        assert step(2 * MS + MS // 2, done=(0,)) == [(3 * MS, 1), (5 * MS, 0)]
        assert core0.running is first
        assert step(3 * MS, done=(1,)) == [(5 * MS, 0)]
        assert core1.running is None


class TestBacklogPin:
    def test_no_shift_while_an_older_job_is_queued(self, params):
        """Task 3's job released at 2 ms on core 1 completes exactly at its
        4 ms deadline, in the batch of its successor's release.  Releases are
        processed before completions, so the older job is still queued at
        that release and pins the task: there is no shift at 4 ms, though the
        gate passes and core 0 is a candidate (without the pin task 3 moves
        back to core 0 there)."""
        tasks = TaskSet(tasks=(
            task_from_ms(1, 4.0, 0.3), task_from_ms(2, 2.0, 0.2), task_from_ms(3, 2.0, 0.8)))
        assignment = Assignment(core_tasks=((1,), (2, 3)), core_utilization=(0.075, 0.5))
        cfg = SimConfig(params=params, cores=2, duration_ms=16.0, e_sw_j=5e-4,
                        cc_mean_ratio=1.0, policy=PolicyKind.LA_REALLOC, seed=0,
                        critical_scale_override=0.5, t_th_ms_override=0.5, collect_trace=True)
        ledger, trace = run(cfg, tasks, assignment)
        at_4ms = [(c, ev, task) for (t, c, ev, task, _d) in trace if t == 4 * MS]
        assert at_4ms.index((1, "release", 3)) < at_4ms.index((1, "complete", 3))
        assert ledger.deadline_miss_count == 0
        reallocs = [(t, c, task, d) for (t, c, ev, task, d) in trace if ev == "realloc"]
        assert reallocs == [(0, 0, 3, "from=1"), (2 * MS, 1, 3, "from=0")]


def full_speed_run(params, tasks, core_tasks, duration_ms, simulator=Simulator):
    """Traced ``la_dvs`` run with the speed pinned at 1 (critical scale 1), so
    work and time advance alike, actual times equal to the worst case, and no
    sleep (threshold beyond the horizon), on a ``simulator``; returns the
    simulator, ledger and the (time, core, event, task) of each start,
    preempt and complete row."""
    task_set = TaskSet(tasks=tuple(tasks))
    assignment = Assignment(core_tasks=core_tasks, core_utilization=(0.0,) * len(core_tasks))
    cfg = SimConfig(params=params, cores=len(core_tasks), duration_ms=duration_ms,
                    cc_mean_ratio=1.0, policy=PolicyKind.LA_DVS, critical_scale_override=1.0,
                    t_th_ms_override=1000.0, collect_trace=True)
    sim = simulator(cfg, task_set, assignment)
    ledger, trace = sim.run()
    rows = [(t, c, ev, task) for (t, c, ev, task, _d) in trace
            if ev in ("start", "preempt", "complete")]
    return sim, ledger, trace, rows


class DueRecorder(Simulator):
    """Records the completion heap, sorted, after each dispatch as (instant,
    core, running task id or None, entries)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dispatches = []

    def _dispatch(self, core, t_ns):
        super()._dispatch(core, t_ns)
        task_id = None if core.running is None else core.running.task_id
        self.dispatches.append((t_ns, core.index, task_id, sorted(self._due)))


class TestSameInstantCompletions:
    def test_completion_beside_an_earlier_deadline_release(self, params):
        """Task 1 completes at 4 ms, the instant task 0 releases a job with an
        earlier deadline (8 ms against 20 ms) on the same core: the completed
        job leaves the queue from its top before the new job joins it, and
        the new job runs."""
        sim, ledger, trace, rows = full_speed_run(
            params, [task_from_ms(0, 4.0, 1.0), task_from_ms(1, 20.0, 3.0)], ((0, 1),), 6.0)
        assert [(ev, task) for (t, _c, ev, task, _d) in trace if t == 4 * MS] == [
            ("release", 0), ("complete", 1), ("start", 0)]
        assert rows == [
            (0, 0, "start", 0), (1 * MS, 0, "complete", 0), (1 * MS, 0, "start", 1),
            (4 * MS, 0, "complete", 1), (4 * MS, 0, "start", 0), (5 * MS, 0, "complete", 0),
        ]
        assert ledger.deadline_miss_count == 0 and ledger.failed_sleep_count == 1
        assert ledger.busy_j[0] == pytest.approx(sim.power * 5e-3, rel=1e-12)
        assert ledger.idle_j[0] == pytest.approx(sim.power * 1e-3, rel=1e-12)

    def test_completions_on_two_cores_share_one_batch(self, params):
        """Tasks 0 and 1 complete at 2 ms on cores 0 and 1: both completions
        are handled before core 0 starts its next job, task 2."""
        tasks = [task_from_ms(0, 10.0, 2.0), task_from_ms(1, 10.0, 2.0),
                 task_from_ms(2, 10.0, 1.0)]
        _sim, ledger, _trace, rows = full_speed_run(params, tasks, ((0, 2), (1,)), 4.0)
        assert rows == [
            (0, 0, "start", 0), (0, 1, "start", 1), (2 * MS, 0, "complete", 0),
            (2 * MS, 1, "complete", 1), (2 * MS, 0, "start", 2), (3 * MS, 0, "complete", 2),
        ]
        assert ledger.deadline_miss_count == 0

    def test_zero_length_job_preempts_and_completes_at_its_release(self, params):
        """Task 0's jobs take 0.1 ns, which rounds to 0: each starts and
        completes at its release.  At 3 ms one preempts task 1 and ends at
        once, so task 1 resumes with no work done since its preemption and
        still completes at 4 ms, once, under a single entry of the completion
        heap.  Core 1's job, due at 3.5 ms, lies between the two."""
        tasks = [Task(id=0, period_ns=3 * MS, wcet_ns=0.1), task_from_ms(1, 10.0, 4.0),
                 task_from_ms(2, 10.0, 3.5)]
        sim, ledger, _trace, rows = full_speed_run(params, tasks, ((0, 1), (2,)), 5.0,
                                                   simulator=DueRecorder)
        assert rows == [
            (0, 0, "start", 0), (0, 1, "start", 2), (0, 0, "complete", 0), (0, 0, "start", 1),
            (3 * MS, 0, "preempt", 1), (3 * MS, 0, "start", 0), (3 * MS, 0, "complete", 0),
            (3 * MS, 0, "start", 1), (3_500_000, 1, "complete", 2), (4 * MS, 0, "complete", 1),
        ]
        at_3ms = [(task, due) for t, i, task, due in sim.dispatches if (t, i) == (3 * MS, 0)]
        assert [task for task, _due in at_3ms] == [0, 1]
        resumed = at_3ms[-1][1]
        assert [i for _w, i in resumed] == [1, 0]
        assert resumed[0][0] == 3.5 * MS and resumed[1][0] == pytest.approx(4 * MS)
        assert ledger.deadline_miss_count == 0
        assert ledger.busy_j == pytest.approx([sim.power * 4e-3, sim.power * 3.5e-3], rel=1e-9)
        assert ledger.idle_j == pytest.approx([sim.power * 1e-3, sim.power * 1.5e-3], rel=1e-9)


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_jobs_queued_at_the_horizon_count_as_misses(params, policy):
    """Two tasks of period 10 ms and worst case 6 ms on one core overload it.
    Of the ten jobs released before the 50 ms horizon, eight complete, five
    of them late; the two due at 50 ms are still queued at the horizon and
    count as missed too."""
    tasks = TaskSet(tasks=(task_from_ms(1, 10.0, 6.0), task_from_ms(2, 10.0, 6.0)))
    assignment = Assignment(core_tasks=((1, 2),), core_utilization=(1.2,))
    cfg = SimConfig(params=params, cores=1, duration_ms=50.0, cc_mean_ratio=1.0,
                    policy=policy, collect_trace=True)
    ledger, trace = run(cfg, tasks, assignment)
    completed, late = {}, 0
    for t, _c, ev, task, _d in trace:
        if ev == "complete":
            # a task's jobs complete in order; its k-th is due at k periods
            completed[task] = completed.get(task, 0) + 1
            late += t > completed[task] * 10 * MS
    assert completed == {1: 4, 2: 4} and late == 5
    assert ledger.deadline_miss_count == late + 2


def test_completions_at_the_horizon_count_on_time(params):
    """The horizon, 4 ms, is the last batch: cores 0 and 1 both complete a
    job due at 4 ms exactly there, on time, and busy the whole run."""
    tasks = [task_from_ms(0, 4.0, 4.0), task_from_ms(1, 4.0, 2.0), task_from_ms(2, 4.0, 2.0)]
    sim, ledger, _trace, rows = full_speed_run(params, tasks, ((0,), (1, 2)), 4.0)
    assert rows == [
        (0, 0, "start", 0), (0, 1, "start", 1), (2 * MS, 1, "complete", 1),
        (2 * MS, 1, "start", 2), (4 * MS, 0, "complete", 0), (4 * MS, 1, "complete", 2),
    ]
    assert ledger.deadline_miss_count == 0 and ledger.idle_j == [0.0, 0.0]
    assert ledger.busy_j == pytest.approx([sim.power * 4e-3] * 2, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "rounding drift: each completion instant is rounded to the nearest ns and the next "
    "job is timed from the work clock at that rounded instant, so the residues (+0.41 ns "
    "twice per 4 ms here) add up over a busy period and the core, at a speed equal to its "
    "utilization, ends each hyperperiod 1 ns late; the first miss is "
    "(4000001, 0, 'complete', 2, '')"))
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_core_at_speed_equal_to_its_utilization_meets_every_deadline(params, policy):
    """One core at U = 0.425, above the critical speed, so every policy runs
    it at exactly that speed with actual times equal to the worst case: each
    4 ms hyperperiod is busy to its end and no job is late."""
    tasks = TaskSet(tasks=(task_from_ms(1, 2.0, 0.5), task_from_ms(2, 4.0, 0.7)))
    cfg = SimConfig(params=params, cores=1, duration_ms=40.0, cc_mean_ratio=1.0, policy=policy)
    ledger, _ = run(cfg, tasks, ltf_partition(tasks, 1))
    assert ledger.deadline_miss_count == 0


class StrayRelease(Simulator):
    """At its first completion, puts a release of another core's task into
    the event heap one nanosecond before that completion."""

    moved = False

    def _complete(self, core, t_ns):
        super()._complete(core, t_ns)
        if not self.moved:
            self.moved = True
            run = self.cores[1 - core.index].members[0]
            heapq.heappush(self._heap, (t_ns - 1, run.task.id, run))


def test_event_before_processed_instant_raises(params, motivational_tasks,
                                               motivational_assignment):
    # Without the guard time steps back by 1 ns and the gap is charged twice.
    cfg = motivational_config(params, PolicyKind.LA_DVS)
    with pytest.raises(EngineError, match="after the batch"):
        StrayRelease(cfg, motivational_tasks, motivational_assignment).run()


class DispatchRecorder(Simulator):
    """Records every dispatch as (instant, core, whether the core was asleep
    or idle and no event of its batch touched it)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []
        self.events = set()   # (instant, core) of each release, completion, wake, move

    def _release(self, run, t_ns):
        self.events.add((t_ns, run.core))
        return super()._release(run, t_ns)

    def _complete(self, core, t_ns):
        self.events.add((t_ns, core.index))
        super()._complete(core, t_ns)

    def _wake(self, core, t_ns):
        self.events.add((t_ns, core.index))
        super()._wake(core, t_ns)

    def _commit(self, run, src, dest, t_ns):
        self.events.update(((t_ns, src.index), (t_ns, dest.index)))
        super()._commit(run, src, dest, t_ns)

    def _dispatch(self, core, t_ns):
        resting = core.state == SLEEPING or not core.ready
        self.calls.append((t_ns, core.index, resting and (t_ns, core.index) not in self.events))
        super()._dispatch(core, t_ns)


def speed_moving_instance(params, power_table, t_th_ms):
    """Core 0 runs a 2 ms task whose releases and completions move the
    speed; core 1 runs one 20 ms task and, between its jobs, is asleep (short
    threshold) or awake and idle (long threshold) through those changes."""
    task_set = TaskSet(tasks=(task_from_ms(0, 2.0, 1.0), task_from_ms(1, 20.0, 1.0)))
    assignment = ltf_partition(task_set, 2)
    assert assignment.core_tasks == ((0,), (1,))
    cfg = SimConfig(params=params, cores=2, duration_ms=100.0, cc_mean_ratio=0.5,
                    policy=PolicyKind.PURE_DVS, seed=1, power_table=power_table,
                    t_th_ms_override=t_th_ms, collect_trace=True)
    return cfg, task_set, assignment


def resting_speed_changes(trace, core):
    """Speed changes at instants where ``core`` has no event of its own and
    has completed a job more recently than it started one."""
    resting, own, changes = False, set(), 0
    for t, c, event, _task, _detail in trace:
        if c == core:
            own.add(t)
            if event in ("start", "complete"):
                resting = event == "complete"
        elif event == "speed_change" and resting and t not in own:
            changes += 1
    return changes


class TestSpeedChangeDispatch:
    @pytest.mark.parametrize("t_th_ms", [1.0, 1000.0])
    def test_untouched_resting_core_is_not_dispatched(self, params, power_table, t_th_ms):
        sim = DispatchRecorder(*speed_moving_instance(params, power_table, t_th_ms))
        _ledger, trace = sim.run()
        sleeps = sum(1 for row in trace if row[1] == 1 and row[2] == "sleep")
        assert (sleeps > 0) == (t_th_ms < 20.0)
        assert resting_speed_changes(trace, 1) > 10
        assert [call for call in sim.calls if call[2]] == []

    def test_declined_sleep_counts_once_across_speed_changes(self, params, power_table):
        cfg, task_set, assignment = speed_moving_instance(params, power_table, 1000.0)
        ledger, trace = run(cfg, task_set, assignment)
        assert resting_speed_changes(trace, 1) > 10
        # A core goes idle at each completion not followed by a start at the
        # same instant, and each such idle moment is one declined sleep.
        starts = {(t, c) for t, c, event, _task, _detail in trace if event == "start"}
        idle_moments = sum(1 for t, c, event, _task, _detail in trace
                           if event == "complete" and (t, c) not in starts)
        assert ledger.wake_count == 0
        assert ledger.failed_sleep_count == idle_moments > 0
