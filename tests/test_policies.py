import math

import pytest

from conftest import compute_load_ns, core_next_release_ns, motivational_config

from coresleep import policies
from coresleep.engine import Simulator, run
from coresleep.policies import (
    PolicyKind,
    compute_dt_ns,
    core_dynamic_utilization,
    policy_speed,
    select_core,
    upon_task_release,
)
from coresleep.partition import ltf_partition
from coresleep.workload import NS_PER_MS, TaskSet

MS = NS_PER_MS


@pytest.fixture
def sim(params, motivational_tasks, motivational_assignment):
    """Simulator in its initial state for the hand-computed scenario;
    tests below fast-forward its task bookkeeping manually."""
    cfg = motivational_config(params, PolicyKind.LA_REALLOC)
    return Simulator(cfg, motivational_tasks, motivational_assignment)


def to_state_after_first_cycle(sim):
    """State just after t = 2 ms releases: first invocations of tasks 1-3
    completed at their worst case, second invocations of tasks 1 and 3
    released (pending), task 2 finished until its release at 4 ms."""
    for task_id in (1, 2, 3):
        run_state = sim.runs[task_id]
        run_state.done = 1
        run_state.last_cc_ns = run_state.task.wcet_ns
    return sim


def release_all(sim, t_ns, task_ids):
    for task_id in task_ids:
        sim._release(sim.runs[task_id], t_ns)


def to_engine_state_after_first_cycle(sim, releases_at_2ms=True):
    """to_state_after_first_cycle reached through the engine's releases, so
    its next-release heaps hold the state too: with the 2 ms releases both
    cores' tops are 4 ms, without them core 1's top is task 3 at 2 ms."""
    release_all(sim, 0, (1, 2, 3))
    for core in sim.cores:
        core.ready.clear()  # the first invocations finished
    to_state_after_first_cycle(sim)
    if releases_at_2ms:
        release_all(sim, 2 * MS, (1, 3))
    return sim


def engine_dt_ns(sim, core, t_ns):
    """dt as the engine takes it: the gap from the core's heap top."""
    gap = core.nexts[0] - t_ns
    return compute_dt_ns(gap, compute_load_ns(core, t_ns), sim.critical_scale)


def engine_load_ns(sim, monkeypatch, task_id, t_ns):
    """Pending load the engine hands to ``compute_dt_ns`` in the reallocation
    attempt for the job of ``task_id`` released at t; it must also equal the
    rescan of the home core's members bit for bit."""
    loads = []

    def recording(gap_ns, load_ns, critical_scale):
        loads.append(load_ns)
        return compute_dt_ns(gap_ns, load_ns, critical_scale)

    monkeypatch.setattr(policies, "compute_dt_ns", recording)
    home = sim.cores[sim.runs[task_id].core]
    sim._reallocate(sim.runs[task_id], t_ns)
    assert loads == [compute_load_ns(home, t_ns)]
    return loads[0]


class TestComputeLoad:
    def test_all_arrived_at_start(self, sim, monkeypatch):
        # both tasks on core 1 have pending first invocations at t = 0
        release_all(sim, 0, (1, 2, 3))
        assert engine_load_ns(sim, monkeypatch, 3, 0) == pytest.approx(0.6 * MS)

    def test_only_fresh_invocation_counts(self, sim, monkeypatch):
        to_engine_state_after_first_cycle(sim)
        # t = 2 ms: task 3 released again, task 2 finished until 4 ms
        assert engine_load_ns(sim, monkeypatch, 3, 2 * MS) == pytest.approx(0.2 * MS)

    def test_no_pending_work(self, sim, monkeypatch):
        to_engine_state_after_first_cycle(sim, releases_at_2ms=False)
        # just before the 2 ms releases nothing is pending on core 0, so the
        # released job's own worst case is the whole load
        assert compute_load_ns(sim.cores[0], 2 * MS - 1) == 0.0
        release_all(sim, 2 * MS, (1,))
        assert engine_load_ns(sim, monkeypatch, 1, 2 * MS) == pytest.approx(0.6 * MS)

    def test_backlogged_task_counts_once(self, sim, monkeypatch):
        # task 3's second job is still pending when its third is released at
        # 4 ms: core 1 holds tasks 2 and 3 at their worst cases, 0.4 + 0.2,
        # not 0.8 from counting every ready job
        release_all(sim, 0, (1, 2, 3))
        sim.cores[1].ready.clear()  # the first invocations of tasks 2 and 3 finished
        for task_id in (2, 3):
            sim.runs[task_id].done = 1
        release_all(sim, 2 * MS, (1, 3))
        release_all(sim, 4 * MS, (2, 3))
        assert engine_load_ns(sim, monkeypatch, 2, 4 * MS) == pytest.approx(0.6 * MS)


class TestComputeDt:
    def test_drained_core_with_fresh_release(self, sim):
        to_engine_state_after_first_cycle(sim)
        # core 1 at t = 2: next release 4 ms, pending work 0.2 at scale 0.4
        assert engine_dt_ns(sim, sim.cores[1], 2 * MS) == pytest.approx(1.5 * MS)

    def test_loaded_core(self, sim):
        to_engine_state_after_first_cycle(sim)
        # core 0 at t = 2: next release 4 ms, task 1 pending again, 0.6 at scale 0.4
        assert engine_dt_ns(sim, sim.cores[0], 2 * MS) == pytest.approx(0.5 * MS)

    def test_zero_load_gives_full_gap(self, sim):
        to_engine_state_after_first_cycle(sim, releases_at_2ms=False)
        # nothing pending just before the 2 ms releases: dt is the time to
        # the earliest next release on the core (task 3 at 2 ms)
        assert compute_load_ns(sim.cores[1], 2 * MS - 1) == 0.0
        assert engine_dt_ns(sim, sim.cores[1], 2 * MS - 1) == 1.0


class TestCoreNextRelease:
    """The engine's per-core heap of next releases, read at its top, against
    the rescan of the members."""

    def test_empty_core(self, params, motivational_tasks):
        # one task on two cores leaves core 1 without members
        tasks = TaskSet(tasks=motivational_tasks.tasks[:1])
        sim = Simulator(motivational_config(params, PolicyKind.LA_DVS), tasks,
                        ltf_partition(tasks, 2))
        assert sim.cores[1].nexts == []
        assert core_next_release_ns(sim.cores[1], 0) is None

    def test_minimum_over_members(self, sim):
        # core 1 holds task 2 (next release 4 ms) and task 3 (2 ms)
        release_all(sim, 0, (1, 2, 3))
        assert sim.cores[1].nexts[0] == core_next_release_ns(sim.cores[1], MS) == 2 * MS

    def test_release_instant_gives_next_period(self, sim):
        release_all(sim, 0, (1, 2, 3))
        release_all(sim, 2 * MS, (1, 3))
        assert sim.cores[0].nexts[0] == core_next_release_ns(sim.cores[0], 2 * MS) == 4 * MS
        release_all(sim, 4 * MS, (2, 3))
        assert sim.cores[1].nexts[0] == core_next_release_ns(sim.cores[1], 4 * MS) == 6 * MS


class TestSelectCore:
    """Options are (dynamic utilization, core index, static utilization).
    The numbers are the hand-computed scenario at t = 2 ms: task 1 (u = 0.3)
    alone on core 0, tasks 2 and 3 (u = 0.1 each) on core 1, which carries
    dynamic and static utilization 0.2."""

    def test_empty_candidates(self):
        assert select_core(0.1, [], 0.4) is None

    def test_accepts_core_at_critical_scale(self):
        # shifting task 3 onto core 0 lands exactly on the critical scale
        assert select_core(0.1, [(0.3, 0, 0.3)], 0.4) == 0

    def test_rejects_when_dynamic_load_too_high(self):
        # task 1 cannot move to core 1: 0.2 + 0.3 exceeds the critical scale
        assert select_core(0.3, [(0.2, 1, 0.2)], 0.4) is None

    def test_rejects_static_overload(self):
        # task 1 stretched to u = 0.95 does not fit next to core 1's 0.2
        assert select_core(0.95, [(0.2, 1, 0.2)], 1.0) is None

    def test_tie_by_index(self):
        options = [(0.2, 3, 0.2), (0.25, 0, 0.1), (0.2, 1, 0.5)]
        assert select_core(0.1, options, 0.4) == 1

    def test_home_excluded(self, sim, monkeypatch):
        # task 3's home core 1 is the only candidate: the gate passes at its
        # boundary (dt 1.5 ms), the engine offers no option, so the shift
        # fails and core 1 stays in S
        to_engine_state_after_first_cycle(sim)
        offered = []

        def recording(u_i, options, critical_scale):
            offered.append(list(options))
            return select_core(u_i, options, critical_scale)

        monkeypatch.setattr(policies, "select_core", recording)
        sim.realloc_candidates = {1}
        sim._reallocate(sim.runs[3], 2 * MS)
        assert offered == [[]]
        assert sim.ledger.realloc_count == 0
        assert sim.realloc_candidates == {1}


class TestUponTaskRelease:
    def test_reaches_threshold_at_boundary(self):
        # core 1 at t = 2 ms: dt 1.5 ms plus task 3's 0.2 ms at scale 0.4
        assert upon_task_release(1.5 * MS, 0.2 * MS, 0.4, 2.0 * MS)

    def test_below_threshold(self):
        assert not upon_task_release(1.4 * MS, 0.2 * MS, 0.4, 2.0 * MS)

    def test_negative_gap(self):
        # a backlog longer than the gap still counts the freed time
        assert upon_task_release(-0.5 * MS, 1.0 * MS, 0.4, 2.0 * MS)


class TestPolicySpeed:
    def test_pure_tracks_utilization(self):
        assert policy_speed(PolicyKind.PURE_DVS, 0.3, 0.19, 0.4) == 0.3

    def test_pure_clamps_to_minimum(self):
        assert policy_speed(PolicyKind.PURE_DVS, 0.05, 0.19, 0.4) == 0.19

    def test_leakage_aware_floor(self):
        assert policy_speed(PolicyKind.LA_DVS, 0.3, 0.19, 0.4) == 0.4
        assert policy_speed(PolicyKind.LA_REALLOC, 0.3, 0.19, 0.4) == 0.4

    def test_above_floor_tracks(self):
        assert policy_speed(PolicyKind.LA_DVS, 0.7, 0.19, 0.4) == 0.7

    def test_full_load_clamps_to_one(self):
        for kind in PolicyKind:
            assert policy_speed(kind, 1.0, 0.19, 0.4) == 1.0
            assert policy_speed(kind, 1.3, 0.19, 0.4) == 1.0

    def test_equals_min_max_rule_bit_for_bit(self):
        min_scale, critical_scale = 0.19, 0.4005401979134871
        for kind in PolicyKind:
            floor = min_scale if kind is PolicyKind.PURE_DVS else critical_scale
            for u in (0.0, 0.05, min_scale, math.nextafter(floor, 0.0), floor,
                      math.nextafter(floor, 1.0), 0.3, 0.7, 1.0, math.nextafter(1.0, 2.0), 1.3):
                expected = min(max(u, floor), 1.0)
                assert policy_speed(kind, u, min_scale, critical_scale).hex() == expected.hex()


class TestCandidateSetEvolution:
    def test_motivational_hand_off(self, params, motivational_tasks, motivational_assignment):
        """At t = 0 every shift fails and both cores join the set; at t = 2
        task 1 fails again but task 3 finds core 0 and leaves core 1 free
        to sleep (which also drops it from the set)."""
        cfg = motivational_config(params, PolicyKind.LA_REALLOC, duration_ms=2.5)
        sim = Simulator(cfg, motivational_tasks, motivational_assignment)
        ledger, trace = sim.run()
        assert ledger.realloc_count == 1
        assert (2 * MS, 0, "realloc", 3, "from=1") in trace
        # core 0 failed its shift of task 1 at 2 ms and stays a candidate;
        # core 1 shifted successfully and then slept
        assert sim.realloc_candidates == {0}


class TestCommitInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_commits_respect_rules_and_speed(self, params, derived, power_table, seed):
        from coresleep.engine import SimConfig
        from coresleep.partition import ltf_partition
        from coresleep.workload import generate_task_set

        ts = generate_task_set(10, 0.8, seed=seed)
        asg = ltf_partition(ts, 2)
        cfg = SimConfig(params=params, cores=2, duration_ms=1000.0,
                        policy=PolicyKind.LA_REALLOC, seed=seed,
                        power_table=power_table)
        ledger, _ = run(cfg, ts, asg)
        assert ledger.realloc_count == len(ledger.realloc_checks)
        for u_static, u_dyn, _u_src, s_before, s_after in ledger.realloc_checks:
            assert u_static <= 1.0 + 1e-9
            assert u_dyn <= derived.critical_scale + 1e-9
            assert s_after <= s_before + 1e-12


def test_dynamic_utilization_tracks_completion(sim):
    # before anything runs, both cores carry their static utilization
    assert core_dynamic_utilization(sim.cores[0], 0) == pytest.approx(0.3)
    assert core_dynamic_utilization(sim.cores[1], 0) == pytest.approx(0.2)
    to_state_after_first_cycle(sim)
    # at t = 2 ms: tasks 1 and 3 pending again, task 2 at its actual time
    assert core_dynamic_utilization(sim.cores[0], 2 * MS) == pytest.approx(0.3)
    assert core_dynamic_utilization(sim.cores[1], 2 * MS) == pytest.approx(0.2)
    # halfway through the first period everything is finished
    assert core_dynamic_utilization(sim.cores[0], int(1.8 * MS)) == pytest.approx(0.3)
    assert core_dynamic_utilization(sim.cores[1], int(1.8 * MS)) == pytest.approx(0.2)
