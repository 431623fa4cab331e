"""Energy-aware partitioned EDF scheduling simulator for multicores with
global DVS, core sleep states, and run-time task reallocation."""

from .engine import EnergyLedger, SimConfig, Simulator, run, write_trace_csv
from .harness import SweepSpec, SweepResult, emit, run_single, run_sweep
from .partition import Assignment, PartitionError, ltf_partition
from .policies import PolicyKind, policy_speed
from .power import (
    DerivedSpeeds,
    PowerModelError,
    PowerParams,
    critical_speed,
    default_power_params,
    derive_speeds,
    dynamic_power,
    frequency_of_vdd,
    load_power_params,
    sleep_threshold,
    static_power,
    total_power_at_speed,
    vdd_of_frequency,
)
from .workload import (
    Job,
    Task,
    TaskSet,
    WorkloadError,
    draw_actual_ratio,
    generate_task_set,
    task_from_ms,
)

__version__ = "0.1.0"
