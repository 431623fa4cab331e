"""Tests of the benchmark's own checks and of what it prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from coresleep.engine import SimConfig, run  # noqa: E402
from coresleep.partition import ltf_partition  # noqa: E402
from coresleep.policies import PolicyKind  # noqa: E402
from coresleep.power import default_power_params  # noqa: E402
from coresleep.workload import TaskSet, task_from_ms  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DURATION_MS = 16.0
E_SW_J = 5e-4


def motivational_run(policy):
    """The two-core scenario with a hand-computable schedule: tasks (period,
    wcet) = (2, 0.6), (4, 0.4), (2, 0.2) ms, critical scale 0.4, sleep
    threshold 2 ms, actual execution equal to the worst case."""
    tasks = TaskSet(tasks=(task_from_ms(1, 2.0, 0.6), task_from_ms(2, 4.0, 0.4),
                           task_from_ms(3, 2.0, 0.2)))
    config = SimConfig(params=default_power_params(), cores=2, duration_ms=DURATION_MS,
                       e_sw_j=E_SW_J, cc_mean_ratio=1.0, policy=policy, seed=0,
                       critical_scale_override=0.4, t_th_ms_override=2.0, collect_trace=True)
    return run(config, tasks, ltf_partition(tasks, 2))


def closed_form_energy(trace):
    power = checks.ClosedFormPower(checks.read_constants(
        HERE.parent / "src" / "coresleep" / "data" / "cmos70nm.conf"))
    return checks.trace_energy(trace, round(DURATION_MS * 1e6), 2, power, E_SW_J)


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_energy_check_accepts_motivational_scenario(policy):
    ledger, trace = motivational_run(policy)
    assert checks.energy_agrees(ledger.total_j, closed_form_energy(trace))


def test_energy_check_rejects_perturbed_ledger():
    ledger, trace = motivational_run(PolicyKind.LA_REALLOC)
    assert ledger.wake_count > 0  # the scenario exercises sleep and wake
    expected = closed_form_energy(trace)
    assert not checks.energy_agrees(ledger.total_j * (1 + 1e-5), expected)
    assert not checks.energy_agrees(ledger.total_j * (1 - 1e-5), expected)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate_cli", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in printed)
