"""Experiment driver: parameter sweeps over paired policy comparisons.

One sweep varies a single axis (per-core utilization, switching overhead,
core count, or the mean actual-to-worst-case execution ratio) while holding
the other parameters fixed.  Within a repetition all three policies see the
identical task set, partition, and per-job execution-time draws, which makes
the 100-run means stable at desk scale.  Energies are normalized to the
leakage-aware DVS policy.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import astuple, dataclass, fields, replace
from multiprocessing import Pool

from . import engine
from .partition import PartitionError, ltf_partition
from .policies import PolicyKind
from .power import PowerParams, PowerTable, default_power_params, derive_speeds
from .workload import PERIOD_RANGE_MS, WorkloadError, check_run_input, generate_task_set, left_sum

# Each axis and the fixed input it replaces.
AXIS_FIELDS = {"U": "u", "E_sw": "e_sw_j", "m": "m", "cc_ratio": "cc_ratio"}
AXES = tuple(AXIS_FIELDS)
# The SweepSpec fields a single run and a sweep share, each a flag of both CLI commands.
RUN_INPUTS = (*AXIS_FIELDS.values(), "n_range", "period_range_ms", "duration_ms")
POLICY_ORDER = tuple(PolicyKind)

# Canonical grids for the four comparative experiments; any sweep may
# override them with explicit values.
DEFAULT_GRIDS = {
    "U": tuple(round(0.1 * k, 10) for k in range(1, 11)),
    "E_sw": tuple(round(1e-4 * k, 14) for k in range(0, 11)),
    "m": (2, 4, 8, 16),
    "cc_ratio": tuple(round(0.05 * k, 10) for k in range(1, 21)),
}

NAN = float("nan")


class SweepError(ValueError):
    """Invalid sweep structure or degenerate normalization (a bad run input is a WorkloadError)."""


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: an axis with its values plus the fixed parameters."""

    axis: str
    values: tuple
    u: float = 0.3                 # per-core average utilization, U_tot / m
    e_sw_j: float = engine.SimConfig.e_sw_j
    m: int = engine.SimConfig.cores
    cc_ratio: float = engine.SimConfig.cc_mean_ratio
    n_range: tuple[int, int] = (10, 20)
    period_range_ms: tuple[float, float] = PERIOD_RANGE_MS
    duration_ms: float = engine.SimConfig.duration_ms
    repetitions: int = 100
    base_seed: int = 1
    # Partition attempts per instance before a configuration point counts as
    # infeasible; a class constant that no caller sets.
    max_partition_retries = 50

    def __post_init__(self):
        if self.axis not in AXES:
            raise SweepError(f"axis must be one of {AXES}")
        vals = tuple(self.values)
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
            raise SweepError("axis values must be nonempty and strictly increasing")
        object.__setattr__(self, "values", vals)
        for value in vals:
            check_run_input(AXIS_FIELDS[self.axis], value)
        for name in (*RUN_INPUTS, "base_seed"):
            check_run_input(name, getattr(self, name))
        if not (isinstance(self.repetitions, int) and self.repetitions >= 1):
            raise SweepError("need at least one repetition")

    def fixed_for(self, value):
        """The (u, e_sw, m, cc_ratio) tuple with the axis value applied."""
        return tuple(value if axis == self.axis else getattr(self, name)
                     for axis, name in AXIS_FIELDS.items())


@dataclass
class ResultRow:
    """A policy's means at one axis value; its fields are the CSV columns after ``axis``."""

    value: float
    policy: str
    energy_j: float
    normalized: float
    misses: float
    wakes: float
    failed_sleeps: float
    runs: int


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[ResultRow]

    @property
    def skipped(self) -> dict:
        """{axis value: repetitions without a feasible instance}."""
        return {row.value: self.spec.repetitions - row.runs for row in self.rows}

    def row(self, value, policy: PolicyKind) -> ResultRow:
        for r in self.rows:
            if r.value == value and r.policy == policy.value:
                return r
        raise KeyError((value, policy))


def _instance_for(seed, n_range, u_tot, m, period_range_ms, max_retries):
    """Deterministically draw a task set admitting a feasible partition.

    Returns (task_set, assignment), or None when the configuration point is
    infeasible (utilization target too high for the drawn task count, or
    every partition resample failed).
    """
    rng = random.Random(f"ts:{seed}")
    n = rng.randint(*n_range)
    for attempt in range(max_retries):
        try:
            task_set = generate_task_set(
                n, u_tot, period_range_ms=period_range_ms, seed=f"{seed}:{attempt}"
            )
            return task_set, ltf_partition(task_set, m)
        except (WorkloadError, PartitionError):
            continue
    return None


def repetition(spec: SweepSpec, value_index, rep, params, table=None):
    """(task_set, assignment, cfg) of one repetition of a sweep, or None when
    it has no feasible instance.  ``cfg`` leaves the policy at its default;
    each caller sets its own with ``dataclasses.replace``."""
    u, e_sw, m, cc = spec.fixed_for(spec.values[value_index])
    seed = spec.base_seed + rep
    instance = _instance_for(
        seed, spec.n_range, u * m, m, spec.period_range_ms, spec.max_partition_retries
    )
    if instance is None:
        return None
    cfg = engine.SimConfig(params=params, cores=m, duration_ms=spec.duration_ms, e_sw_j=e_sw,
                           cc_mean_ratio=cc, seed=seed, power_table=table)
    return (*instance, cfg)


# Worker-process globals, set once per worker by _init_worker.
_WORKER_CTX: dict = {}


def _init_worker(spec, params, table):
    _WORKER_CTX["spec"] = spec
    _WORKER_CTX["params"] = params
    _WORKER_CTX["table"] = table


def _run_repetition(job):
    """{policy: (energy, misses, wakes, failed sleeps)} of one (value index,
    repetition) job, or None when it has no feasible instance."""
    value_index, rep = job
    built = repetition(_WORKER_CTX["spec"], value_index, rep,
                       _WORKER_CTX["params"], _WORKER_CTX["table"])
    if built is None:
        return None
    task_set, assignment, cfg = built
    out = {}
    for policy in POLICY_ORDER:
        ledger, _ = engine.run(replace(cfg, policy=policy), task_set, assignment)
        out[policy.value] = (
            ledger.total_j,
            ledger.deadline_miss_count,
            ledger.wake_count,
            ledger.failed_sleep_count,
        )
    return out


def run_sweep(spec: SweepSpec, params: PowerParams | None = None, workers: int = 1) -> SweepResult:
    """Run the full sweep and aggregate per-policy means, each energy also
    normalized to the leakage-aware DVS mean at the same axis value.

    Repetitions are independent and may run in parallel; results come back in
    job order and are summed in repetition order, so the outcome does not
    depend on the worker count.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise SweepError(f"need at least one worker, got {workers}")
    params = params or default_power_params()
    table = PowerTable(params, derive_speeds(params))

    reps = spec.repetitions
    jobs = [(vi, rep) for vi in range(len(spec.values)) for rep in range(reps)]
    # No more processes than jobs; with one, the jobs run in this process.
    processes = min(workers, len(jobs))
    if processes > 1:
        with Pool(processes, initializer=_init_worker, initargs=(spec, params, table)) as pool:
            raw = pool.map(_run_repetition, jobs, chunksize=4)
    else:
        _init_worker(spec, params, table)
        try:
            raw = [_run_repetition(job) for job in jobs]
        finally:
            _WORKER_CTX.clear()

    rows: list[ResultRow] = []
    for vi, value in enumerate(spec.values):
        cells = [out for out in raw[vi * reps:(vi + 1) * reps] if out is not None]
        n = len(cells)
        means = {}
        for policy in POLICY_ORDER:
            columns = zip(*(out[policy.value] for out in cells))
            means[policy] = [left_sum(col) / n for col in columns] if n else [NAN] * 4
        ref = means[PolicyKind.LA_DVS][0]
        if ref == 0.0:
            raise SweepError(f"degenerate configuration: zero energy at {value}")
        for policy in POLICY_ORDER:
            energy, *counts = means[policy]
            rows.append(ResultRow(value, policy.value, energy, energy / ref, *counts, n))
    return SweepResult(spec=spec, rows=rows)


def emit(result: SweepResult, path) -> None:
    """Write the sweep CSV (with a provenance header) and a companion plot
    script next to it.  Re-emitting the same result is byte-identical."""
    spec = result.spec
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# coresleep sweep result\n")
        for field in fields(spec):
            value = getattr(spec, field.name)
            if isinstance(value, tuple):
                # the axis values joined by commas, a (min, max) range by a colon
                value = ("," if field.name == "values" else ":").join(map(str, value))
            fh.write(f"# {field.name} = {value}\n")
        fh.write(f"# skipped_repetitions = {sum(result.skipped.values())}\n")
        # A float cell is its repr, nan included.
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis", *(column.name for column in fields(ResultRow))])
        writer.writerows([spec.axis, *astuple(row)] for row in result.rows)
    _write_plot_script(path)


def _write_plot_script(csv_path) -> None:
    stem = os.path.splitext(str(csv_path))[0]   # a dot in a directory name stays
    script_path = stem + "_plot.py"
    policies = ", ".join(f'"{policy.value}"' for policy in POLICY_ORDER)
    body = f'''"""Plot normalized energy per policy from {csv_path!s}."""
import csv

import matplotlib.pyplot as plt

with open({str(csv_path)!r}) as fh:
    data = [line for line in fh if not line.startswith("#")]
rows = list(csv.DictReader(data))

axis = rows[0]["axis"] if rows else "value"
for policy in ({policies}):
    pts = [(float(r["value"]), float(r["normalized"])) for r in rows if r["policy"] == policy]
    plt.plot([p[0] for p in pts], [p[1] for p in pts], marker="o", label=policy)
plt.xlabel(axis)
plt.ylabel("energy normalized to la_dvs")
plt.legend()
plt.grid(True, alpha=0.3)
plt.savefig({stem + ".png"!r}, dpi=150)
print("wrote", {stem + ".png"!r})
'''
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)


def run_single(params: PowerParams, policy: PolicyKind, seed: int = SweepSpec.base_seed,
               collect_trace: bool = False, **inputs):
    """Generate one instance and simulate it under one policy.

    ``inputs`` are keywords named in ``RUN_INPUTS``, each defaulting as in
    ``SweepSpec``.  The run is repetition 0 of the one-point sweep over
    U = ``u`` with base seed ``seed``, so its inputs are checked as that
    sweep's are, before anything is drawn, and its energy and counts equal
    the sweep's row for ``policy``.

    Returns (task_set, assignment, ledger, trace).
    """
    spec = SweepSpec(axis="U", values=(inputs.get("u", SweepSpec.u),), repetitions=1,
                     base_seed=seed, **inputs)
    built = repetition(spec, 0, 0, params)
    if built is None:
        raise PartitionError(f"no feasible partition for seed {seed} after resampling")
    task_set, assignment, cfg = built
    ledger, trace = engine.run(
        replace(cfg, policy=policy, collect_trace=collect_trace), task_set, assignment
    )
    return task_set, assignment, ledger, trace
