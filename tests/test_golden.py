"""Byte-identity gate for engine and harness changes that must not move a
result.

The digests below were recorded before the engine cached per-core dynamic
utilization.  A change meant to be output-neutral (a speed-up, a refactor)
must keep every one of them; a change that shifts numerics on purpose
re-records them and says why.

Re-recorded: (LA_REALLOC, 8), when the reallocation commit check started
comparing against the speed of the same instant without the move instead
of the speed before that instant's releases.  Its trace and energies are
unchanged; only the speed-before field of realloc record 58 moved, from
0.4005401979134871 to 0.44105921471496695.
"""

import hashlib

import pytest

from coresleep.harness import SweepSpec, emit, run_single, run_sweep
from coresleep.policies import PolicyKind

# sha256 of the trace rows plus the ledger totals of
# run_single(policy, m=m, seed=5, duration_ms=2000.0, collect_trace=True).
RUN_DIGESTS = {
    (PolicyKind.PURE_DVS, 2):
        "7d359c1eb62bd1de0b536ca01c14b021859186ba7c4e14a71f609ff9d2e314b7",
    (PolicyKind.LA_DVS, 2):
        "1d0947386361efeaa462175463fad24463da967b40b067b7a3799819c83813d0",
    (PolicyKind.LA_REALLOC, 2):
        "74d0d8bb4e06c500ef842a910370fd05caeb534e6243d348e87ba5c6aa3a5832",
    (PolicyKind.PURE_DVS, 8):
        "546ad107c27385bf9a1ec12bbaf43eb7eb34e5ac9ff8247950a6e43a21289436",
    (PolicyKind.LA_DVS, 8):
        "f5d441edcd1fa9f212764158d4dede0c9ac5e2e6fc58255616f6f0a7908fa5a4",
    (PolicyKind.LA_REALLOC, 8):
        "8b47b7f9961754de2e5af13d4adc7fdb294d709d630a0fe1f4635c3de8f3bb16",
}

# sha256 of the data rows (header included, provenance comments excluded)
# of the CSV written for SWEEP_SPEC.
SWEEP_SPEC = dict(axis="U", values=(0.1, 0.5, 0.9), repetitions=2, duration_ms=500.0)
SWEEP_DIGEST = "5c0f5e6c09004aab5cd72486e0cd2178ef6df313fe0c006b7fe1a4b2f2e1f010"


def run_digest(params, policy, m):
    _, _, ledger, trace = run_single(
        params, policy, m=m, seed=5, duration_ms=2000.0, collect_trace=True
    )
    h = hashlib.sha256()
    for row in trace:
        h.update(repr(row).encode())
        h.update(b"\n")
    totals = (
        ledger.total_j, ledger.busy_j, ledger.idle_j, ledger.switch_j,
        ledger.wake_count, ledger.failed_sleep_count, ledger.deadline_miss_count,
        ledger.realloc_count, ledger.realloc_checks,
    )
    h.update(repr(totals).encode())
    return h.hexdigest()


def sweep_digest(params, path):
    emit(run_sweep(SweepSpec(**SWEEP_SPEC), params=params), path)
    data = [ln for ln in path.read_text().splitlines(keepends=True) if not ln.startswith("#")]
    return hashlib.sha256("".join(data).encode()).hexdigest()


@pytest.mark.parametrize("policy, m", list(RUN_DIGESTS))
def test_run_single_trace_and_ledger_unchanged(params, policy, m):
    assert run_digest(params, policy, m) == RUN_DIGESTS[(policy, m)]


def test_sweep_csv_rows_unchanged(params, tmp_path):
    assert sweep_digest(params, tmp_path / "golden.csv") == SWEEP_DIGEST
