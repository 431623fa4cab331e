"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The heavy sweeps run once as module fixtures; on two workers the whole module
took 227 s on a 2-CPU Linux host with Python 3.11.
"""

import random
from dataclasses import replace

import pytest

from conftest import capped_first_fit, idle_gaps_between_jobs, motivational_config
from dense_oracle import integrate_trace_energy

from coresleep.engine import SimConfig, run
from coresleep.harness import (
    DEFAULT_GRIDS, POLICY_ORDER, SweepResult, SweepSpec, _instance_for, emit, repetition,
    run_sweep,
)
from coresleep.partition import ltf_partition
from coresleep.policies import PolicyKind
from coresleep.power import derive_speeds
from coresleep.workload import NS_PER_MS, Task, TaskSet

MS = NS_PER_MS
WORKERS = 2


def report(num, ok, text):
    print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def fig3(params):
    spec = SweepSpec(
        axis="U", values=DEFAULT_GRIDS["U"],
        e_sw_j=5e-4, m=2, cc_ratio=0.5,
        repetitions=100, base_seed=1,
    )
    return run_sweep(spec, params=params, workers=WORKERS)


@pytest.fixture(scope="module")
def fig4(params, fig3):
    """The E_sw sweep at U = 0.3.  Its point at fig3's E_sw is fig3's point
    at U = 0.3: a repetition's seed is the base seed plus its index whatever
    the axis value, so both run the same instances with the same settings.
    Those rows are taken from fig3 instead of being run twice."""
    spec = SweepSpec(
        axis="E_sw", values=DEFAULT_GRIDS["E_sw"],
        u=0.3, m=2, cc_ratio=0.5,
        repetitions=100, base_seed=1,
    )
    shared = fig3.spec.e_sw_j
    assert replace(spec, axis="U", values=(spec.u,)) == replace(fig3.spec, values=(spec.u,))
    rest = run_sweep(replace(spec, values=tuple(v for v in spec.values if v != shared)),
                     params=params, workers=WORKERS)
    rows = [replace(fig3.row(spec.u, policy), value=shared) if value == shared
            else rest.row(value, policy)
            for value in spec.values for policy in POLICY_ORDER]
    return SweepResult(spec=spec, rows=rows)


def test_criterion_1_critical_speed(params):
    derived = derive_speeds(params)
    ok = abs(derived.critical_scale - 0.40) <= 0.02
    report(1, ok, f"critical speed {derived.critical_scale:.4f} within 0.40 +/- 0.02")


def test_criterion_2_golden_trace(params, motivational_tasks, motivational_assignment):
    # (a) plain DVS settles at exactly 0.30
    _, trace = run(motivational_config(params, PolicyKind.PURE_DVS),
                   motivational_tasks, motivational_assignment)
    speeds = [(t, float(d)) for (t, _c, ev, _x, d) in trace if ev == "speed_change"]
    ok_a = speeds == [(0, 0.3)]

    # (b) leakage-aware DVS at 0.40, core 0 idles exactly 0.5 ms per period,
    # nobody sleeps
    led_b, trace_b = run(motivational_config(params, PolicyKind.LA_DVS),
                         motivational_tasks, motivational_assignment)
    speeds_b = [(t, float(d)) for (t, _c, ev, _x, d) in trace_b if ev == "speed_change"]
    gaps = idle_gaps_between_jobs(trace_b, 0)
    ok_b = (
        speeds_b == [(0, 0.4)]
        and led_b.wake_count == 0
        and not any(ev == "sleep" for (_t, _c, ev, _x, _d) in trace_b)
        and gaps and all(g == 500_000 for g in gaps)
    )

    # (c) the reallocation shifts task 3 at exactly t = 2 ms, utilizations
    # land on 0.4 / 0.1, the speed does not increase, core 1 then sleeps
    led_c, trace_c = run(motivational_config(params, PolicyKind.LA_REALLOC),
                         motivational_tasks, motivational_assignment)
    reallocs = [(t, c, task, d) for (t, c, ev, task, d) in trace_c if ev == "realloc"]
    u_static, u_dyn_dest, u_dyn_src, s_before, s_after = led_c.realloc_checks[0]
    ok_c = (
        reallocs == [(2 * MS, 0, 3, "from=1")]
        and abs(u_dyn_dest - 0.4) <= 1e-12
        and abs(u_dyn_src - 0.1) <= 1e-12
        and s_after <= s_before
        and (2 * MS, 1, "sleep", None, "") in trace_c
    )

    # (d) reallocation beats plain leakage-aware DVS on this instance
    ok_d = led_c.total_j < led_b.total_j

    report(2, ok_a and ok_b and ok_c and ok_d,
           f"golden trace  a={ok_a} b={ok_b} c={ok_c} d={ok_d}")


def _oracle_instance(seed):
    rng = random.Random(f"oracle:{seed}")
    n = rng.randint(1, 3)
    periods_ms = rng.sample([5, 8, 10, 20, 40], n)  # pairwise lcm divides 40
    tasks = []
    for i, p_ms in enumerate(periods_ms):
        u = rng.uniform(0.08, 0.6)
        tasks.append(Task(id=i, period_ns=p_ms * MS, wcet_ns=u * p_ms * MS))
    return TaskSet(tasks=tuple(tasks))


def test_criterion_3_oracle_equivalence(params, power_table):
    worst = 0.0
    checked = 0
    for seed in range(24):
        task_set = _oracle_instance(seed)
        assignment = ltf_partition(task_set, 2)
        e_sw = (0.0, 5e-4, 1e-3)[seed % 3]
        duration_ms = 40.0 if seed % 4 else 37.5
        for policy in PolicyKind:
            cfg = SimConfig(
                params=params, cores=2, duration_ms=duration_ms, e_sw_j=e_sw,
                cc_mean_ratio=0.5, policy=policy, seed=seed,
                power_table=power_table, collect_trace=True,
            )
            ledger, trace = run(cfg, task_set, assignment)
            oracle = integrate_trace_energy(
                trace, round(duration_ms * MS), 2, params, e_sw
            )
            if oracle > 0 or ledger.total_j > 0:
                rel = abs(ledger.total_j - oracle) / max(oracle, ledger.total_j)
                worst = max(worst, rel)
            checked += 1
    ok = checked == 72 and worst <= 1e-3
    report(3, ok, f"event-driven vs 1 us dense integration: worst rel err {worst:.2e} over {checked} runs")


def test_criterion_4_utilization_sweep_peak_saving(fig3):
    dip = min(fig3.row(v, PolicyKind.LA_REALLOC).normalized for v in (0.3, 0.4, 0.5))
    ok = dip <= 0.90
    report("4 (peak saving)", ok, f"reallocation dip {dip:.3f} <= 0.90 for some U in [0.3, 0.5]")


def test_criterion_4_utilization_sweep_high_extreme(fig3):
    populated = [v for v in (0.8, 0.9, 1.0) if fig3.row(v, PolicyKind.LA_REALLOC).runs > 0]
    values = {v: fig3.row(v, PolicyKind.LA_REALLOC).normalized for v in populated}
    ok = bool(populated) and all(0.97 <= nv <= 1.03 for nv in values.values())
    report("4 (high extreme)", ok,
           f"normalized at U>=0.8 within [0.97, 1.03]: { {k: round(v, 3) for k, v in values.items()} }")


def test_criterion_4_utilization_sweep_low_extreme(fig3, params, derived, power_table):
    # At U = 0.1 the whole task set fits on one core below the critical speed,
    # so capped first fit packs it onto core 0, and la_dvs on that one-core
    # packing of the same instances is the most any consolidating policy can
    # save; reallocation must reach that limit. The instances and
    # configurations are the sweep's own repetitions.
    spec = fig3.spec
    value_index = spec.values.index(0.1)
    packed = []
    for rep in range(spec.repetitions):
        built = repetition(spec, value_index, rep, params, power_table)
        if built is None:
            continue
        task_set, _, cfg = built
        packing = capped_first_fit(task_set, cfg.cores, derived.critical_scale)
        assert packing.core_tasks[1:] == ((),) * (cfg.cores - 1)
        ledger, _ = run(replace(cfg, policy=PolicyKind.LA_DVS), task_set, packing)
        packed.append(ledger.total_j)
    worst_fit = fig3.row(0.1, PolicyKind.LA_DVS)
    assert len(packed) == worst_fit.runs
    packed_j = sum(packed) / len(packed)
    realloc = fig3.row(0.1, PolicyKind.LA_REALLOC)
    ratio = realloc.energy_j / packed_j
    ok = 0.97 <= ratio <= 1.03
    report("4 (low extreme)", ok,
           f"at U=0.1 realloc {realloc.normalized:.3f} and one-core packing "
           f"{packed_j / worst_fit.energy_j:.3f} of worst-fit la_dvs; "
           f"ratio {ratio:.4f} required within [0.97, 1.03]")


def test_criterion_5_switching_overhead_sweep(fig4):
    in_window = [v for v in fig4.spec.values if 3e-4 - 1e-12 <= v <= 1e-3 + 1e-12]
    pure_min = min(fig4.row(v, PolicyKind.PURE_DVS).normalized for v in in_window)
    ok_cross = pure_min < 1.0
    pure_end = fig4.row(1e-3, PolicyKind.PURE_DVS).normalized
    realloc_end = fig4.row(1e-3, PolicyKind.LA_REALLOC).normalized
    ok_end = realloc_end <= min(1.0, pure_end) + 0.01
    report(5, ok_cross and ok_end,
           f"plain DVS below 1.0 for large overhead (min {pure_min:.3f}); "
           f"at 1 mJ realloc {realloc_end:.3f} <= min(1, pure {pure_end:.3f}) + 0.01")


def test_criterion_6_safety_properties(params, derived, power_table):
    u_grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    m_grid = (2, 2, 4, 4, 8, 16)
    e_grid = (0.0, 2e-4, 5e-4, 1e-3)
    cc_grid = (0.05, 0.3, 0.5, 0.8, 1.0)
    misses = 0
    commits = 0
    balanced = True

    for seed in range(100):
        u = u_grid[seed % len(u_grid)]
        m = m_grid[seed % len(m_grid)]
        if u * m > 8:  # keep the split target below the task count
            m = 2
        e_sw = e_grid[seed % len(e_grid)]
        cc = cc_grid[seed % len(cc_grid)]
        instance = _instance_for(seed, SweepSpec.n_range, u * m, m, SweepSpec.period_range_ms,
                                 SweepSpec.max_partition_retries)
        if instance is None:
            continue
        task_set, assignment = instance
        for policy in (PolicyKind.LA_DVS, PolicyKind.LA_REALLOC):
            cfg = SimConfig(
                params=params, cores=m, duration_ms=2000.0, e_sw_j=e_sw,
                cc_mean_ratio=cc, policy=policy, seed=seed,
                power_table=power_table,
            )
            ledger, _ = run(cfg, task_set, assignment)  # commit checks raise on violation
            misses += ledger.deadline_miss_count
            commits += len(ledger.realloc_checks)
            for u_st, u_dy, _u_src, s0, s1 in ledger.realloc_checks:
                assert u_st <= 1.0 + 1e-9
                assert u_dy <= derived.critical_scale + 1e-9
                assert s1 <= s0 + 1e-12
            if ledger.total_j != sum(ledger.busy_j) + sum(ledger.idle_j) + ledger.switch_j:
                balanced = False
    ok = misses == 0 and balanced and commits > 0
    report(6, ok, f"100 seeds: zero misses ({misses}), {commits} reallocation commits "
                  f"all within bounds, ledgers balance exactly")


def test_criterion_7_determinism(params, tmp_path):
    spec = SweepSpec(
        axis="E_sw", values=(0.0, 5e-4, 1e-3), u=0.3, m=2, cc_ratio=0.5,
        duration_ms=2000.0, repetitions=5, base_seed=9,
    )
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    emit(run_sweep(spec, params=params, workers=WORKERS), paths[0])
    emit(run_sweep(spec, params=params, workers=WORKERS), paths[1])
    emit(run_sweep(spec, params=params, workers=1), paths[2])
    same = paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    report(7, same, "byte-identical CSV across repeats and worker counts")


def test_substitute_cc_ratio_axis(params):
    spec = SweepSpec(
        axis="cc_ratio", values=(0.05, 0.25, 0.5, 0.75, 1.0),
        u=0.3, m=2, e_sw_j=5e-4, repetitions=40, base_seed=1,
    )
    res = run_sweep(spec, params=params, workers=WORKERS)
    worst = max(res.row(v, PolicyKind.LA_REALLOC).normalized for v in spec.values)
    ok = worst <= 1.01
    report("5/6 substitute (cc axis)", ok,
           f"reallocation never hurts across cc/WCET: max normalized {worst:.3f} <= 1.01")


def test_substitute_core_count_axis(params):
    spec = SweepSpec(
        axis="m", values=(2, 4, 8, 16),
        u=0.3, e_sw_j=5e-4, cc_ratio=0.5, repetitions=40, base_seed=1,
    )
    res = run_sweep(spec, params=params, workers=WORKERS)
    worst = max(res.row(v, PolicyKind.LA_REALLOC).normalized for v in spec.values)
    pure2 = res.row(2, PolicyKind.PURE_DVS).normalized
    pure16 = res.row(16, PolicyKind.PURE_DVS).normalized
    ok = worst <= 1.01 and pure16 > pure2
    report("5/6 substitute (core axis)", ok,
           f"realloc max normalized {worst:.3f} <= 1.01; plain DVS grows with cores "
           f"({pure2:.3f} at m=2 -> {pure16:.3f} at m=16)")
