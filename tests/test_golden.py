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

Re-recorded: (PURE_DVS, 2), (LA_REALLOC, 2), (LA_REALLOC, 8) and the sweep,
when per-core utilization became an exact integer sum in units of 2**-62
instead of a float sum in member order.  Each speed is now the correctly
rounded maximum sum, so speeds and utilizations moved by a few ulps.  Every
trace row's time, core, event and task is unchanged, and so are the wake,
failed-sleep, miss and reallocation counts.  Largest drift measured: speed
values 2.8e-16 relative (speed-change rows only); ledger energies of these
runs unchanged; the dynamic-utilization fields of realloc_checks 3.4e-16,
except one source-core sum of 3.0e-6 that moved by 5.8e-15 relative (1.7e-20
absolute, below the 2**-62 resolution of a term); one sweep energy 1.4e-16.
The other three run digests did not move.

Re-recorded: all six runs and the sweep, when each core came to hold its
one pending completion or wake instead of leaving superseded completions in
the event heap.  A superseded completion used to end an energy-accrual
interval at its instant; now the interval runs on to the next real event,
so the float sums of busy and idle energy round differently.  Every trace
row, count and realloc_checks record is unchanged.  Largest drift measured:
ledger energies of the six runs 8.3e-16 relative; the sweep's energy_j and
normalized fields 7.8e-16 (13 fields moved); on a grid of 408 runs (m in
{1, 2, 3, 4, 8, 16}, U in {0.2, 0.5, 0.8}, seeds 1-4, all three policies,
E_sw in {0, 0.5 mJ}, 1.5 s each) 4.6e-15.

To re-record after a deliberate numerics change, print the digests of the
current code with ``PYTHONPATH=src python tests/test_golden.py`` and copy only
the entries that moved.
"""

import hashlib

import pytest

from coresleep.harness import SweepSpec, emit, run_single, run_sweep
from coresleep.policies import PolicyKind

# sha256 of the trace rows plus the ledger totals of
# run_single(policy, m=m, seed=5, duration_ms=2000.0, collect_trace=True).
RUN_DIGESTS = {
    (PolicyKind.PURE_DVS, 2):
        "6faccd21d45ce4a31f995a00951b0dbd7faa79604100155cbb60519b432e264f",
    (PolicyKind.LA_DVS, 2):
        "341bcba8c295540fa18bdc5e6def6140a43bbb81b6b861d5d3c65d1b01068223",
    (PolicyKind.LA_REALLOC, 2):
        "1f146da9bf8de83d5095aecb4311b7f8c0e7bb6504ee9b9289f3c6c929c4a374",
    (PolicyKind.PURE_DVS, 8):
        "07607ee94229ef6b5751e9f88604b4cacb0af27c0a78d08b7ff66107dc5fd675",
    (PolicyKind.LA_DVS, 8):
        "52bbce53c497cf56fd23e6b270110db3e491f6893933d3829b1f5acd3bc77d63",
    (PolicyKind.LA_REALLOC, 8):
        "efed59db4c98143ae44789a6b4f774d203d6d2cdda9ec345437a9e578ed3c6e4",
}

# sha256 of the data rows (header included, provenance comments excluded)
# of the CSV written for SWEEP_SPEC.
SWEEP_SPEC = dict(axis="U", values=(0.1, 0.5, 0.9), repetitions=2, duration_ms=500.0)
SWEEP_DIGEST = "8da5e80666f4a297e960ccc7095e6e36c5aed2fd5c6ac9955303cf9374486288"


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


if __name__ == "__main__":
    # Print the digests of the current code, in the layout above, for a
    # deliberate re-record: PYTHONPATH=src python tests/test_golden.py
    import tempfile
    from pathlib import Path

    from coresleep.power import default_power_params

    params = default_power_params()
    print("RUN_DIGESTS = {")
    for policy, m in RUN_DIGESTS:
        print(f"    (PolicyKind.{policy.name}, {m}):\n        \"{run_digest(params, policy, m)}\",")
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f'SWEEP_DIGEST = "{sweep_digest(params, Path(tmp) / "golden.csv")}"')
