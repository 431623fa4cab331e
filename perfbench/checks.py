"""Output checks made apart from the simulator.

Active power comes in closed form straight from the technology constants
file, with its own parser, so no value passes through ``coresleep.power``:

    vdd = ((f * l_d * k6) ** (1 / epsilon) + vth1 - k2 * v_bs) / (1 + k1)

Energy is then integrated over an event trace at event resolution: between
two trace instants every awake core draws the active power of the global
speed, a sleeping core draws nothing, and every wake costs E_sw.
"""

from __future__ import annotations

import csv
import math

# The simulator's power table interpolates, which is worth about 2e-8
# relative; a ledger off by 1e-5 must fail.
ENERGY_REL_TOL = 1e-6


def read_constants(path) -> dict:
    """Parse the flat ``name = value`` constants file (``#`` comments)."""
    consts = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                name, _, value = line.partition("=")
                consts[name.strip().lower()] = float(value)
    return consts


class ClosedFormPower:
    """Active power of one core at a normalized speed."""

    def __init__(self, consts: dict):
        c = consts
        self.c = c
        overdrive = c["vdd_max"] - c["vth1"] + c["k1"] * c["vdd_max"] + c["k2"] * c["v_bs"]
        self.f_max = overdrive ** c["epsilon"] / (c["l_d"] * c["k6"])
        self._memo: dict[float, float] = {}

    def __call__(self, speed: float) -> float:
        p = self._memo.get(speed)
        if p is None:
            c = self.c
            f = speed * self.f_max
            vdd = ((f * c["l_d"] * c["k6"]) ** (1.0 / c["epsilon"]) + c["vth1"]
                   - c["k2"] * c["v_bs"]) / (1.0 + c["k1"])
            i_subn = c["k3"] * math.exp(c["k4"] * vdd) * math.exp(c["k5"] * c["v_bs"])
            p = c["c_eff"] * vdd * vdd * f + c["l_g"] * (vdd * i_subn + abs(c["v_bs"]) * c["i_j"])
            self._memo[speed] = p
        return p


def trace_energy(trace, duration_ns: int, cores: int, power: ClosedFormPower, e_sw_j: float) -> float:
    """Energy (J) implied by ``trace`` over [0, duration_ns).

    ``trace`` holds (time_ns, core, event, task, detail) rows in the
    simulator's order; rows at one instant all apply before the next
    interval is charged.
    """
    awake = cores
    speed = None
    wakes = 0
    total_w_ns = 0.0
    t_prev = 0
    for t_ns, _core, event, _task, detail in trace:
        if t_ns > t_prev:
            if awake:
                total_w_ns += awake * power(speed) * (min(t_ns, duration_ns) - t_prev)
            t_prev = t_ns
        if event == "speed_change":
            speed = float(detail)
        elif event == "sleep":
            awake -= 1
        elif event == "wake":
            awake += 1
            wakes += 1
    if duration_ns > t_prev and awake:
        total_w_ns += awake * power(speed) * (duration_ns - t_prev)
    return total_w_ns * 1e-9 + wakes * e_sw_j


def energy_agrees(ledger_j: float, expected_j: float, abs_tol: float = 0.0) -> bool:
    """True when the simulator's energy matches the closed-form integral."""
    return abs(ledger_j - expected_j) <= ENERGY_REL_TOL * abs(expected_j) + abs_tol


def job_count(task_set, duration_ns: int) -> int:
    """Jobs released in [0, H): the sum over tasks of ceil(H / P_i)."""
    return sum(-(-duration_ns // task.period_ns) for task in task_set)


def read_trace_csv(path):
    """Trace rows from a ``coresleep simulate --trace`` file, typed back."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t_ns, core, event, task, detail in reader:
            rows.append((int(t_ns), int(core) if core else None, event,
                         int(task) if task else None, detail))
    return rows


def trace_problems(trace, *, duration_ns, cores, power, e_sw_j, energy_j, energy_abs_tol,
                   jobs, wakes, switch_j, misses, policy):
    """Every way one run's outputs disagree with its trace and task set.

    Returns a list of messages; empty means the run passed.
    """
    problems = []
    expected = trace_energy(trace, duration_ns, cores, power, e_sw_j)
    if not energy_agrees(energy_j, expected, energy_abs_tol):
        problems.append(f"energy {energy_j!r} J, closed-form trace integral {expected!r} J")
    releases = sum(1 for row in trace if row[2] == "release")
    if releases != jobs:
        problems.append(f"{releases} release rows, task set gives {jobs} jobs")
    wake_rows = sum(1 for row in trace if row[2] == "wake")
    if wake_rows != wakes:
        problems.append(f"{wake_rows} wake rows, ledger counts {wakes}")
    if not math.isclose(switch_j, wakes * e_sw_j, rel_tol=1e-12, abs_tol=energy_abs_tol):
        problems.append(f"switch energy {switch_j!r} J is not {wakes} wakes x {e_sw_j!r} J")
    if misses and policy != "pure_dvs":
        problems.append(f"{misses} deadline misses under {policy}")
    return problems
