"""Trace the three policies through a small hand-checkable scenario.

Two cores, three tasks (period, worst case) = (2, 0.6), (4, 0.4), (2, 0.2)
in milliseconds, actual execution equal to the worst case, critical scale
pinned to 0.4 and sleep threshold to 2 ms.  Plain DVS settles at speed 0.3;
the leakage-aware floor raises it to 0.4, which opens idle intervals that
are individually too short to sleep through; reallocation then moves task 3
across so one core fills up and the other can sleep.
"""

from coresleep import PolicyKind, SimConfig, ltf_partition, run, default_power_params
from coresleep.workload import TaskSet, task_from_ms

params = default_power_params()
tasks = TaskSet(tasks=(
    task_from_ms(1, 2.0, 0.6),
    task_from_ms(2, 4.0, 0.4),
    task_from_ms(3, 2.0, 0.2),
))
assignment = ltf_partition(tasks, 2)
print("core tasks:", assignment.core_tasks, " per-core utilization:", assignment.core_utilization)

for policy in PolicyKind:
    cfg = SimConfig(
        params=params, cores=2, duration_ms=16.0, e_sw_j=5e-4, cc_mean_ratio=1.0,
        policy=policy, seed=0, critical_scale_override=0.4, t_th_ms_override=2.0,
        collect_trace=True,
    )
    ledger, trace = run(cfg, tasks, assignment)
    print(f"\n=== {policy.value} ===")
    print(f"energy {ledger.total_j*1e3:.3f} mJ  wakes {ledger.wake_count}  "
          f"failed sleeps {ledger.failed_sleep_count}  reallocations {ledger.realloc_count}")
    if policy is PolicyKind.LA_REALLOC:
        print("first 4 ms of the trace:")
        for t_ns, core, event, task, detail in trace:
            if t_ns > 4_000_000:
                break
            where = f"core {core}" if core is not None else "global"
            what = f" task {task}" if task is not None else ""
            extra = f" ({detail})" if detail else ""
            print(f"  t={t_ns/1e6:6.3f} ms  {where:7s} {event}{what}{extra}")
