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

Re-recorded: all six runs and the sweep, when the engine came to keep a
work clock and an energy clock instead of per-core progress.  A running
core holds the clock value at which its job ends, and a core's busy or idle
energy is a difference of the energy clock at its own state changes instead
of a sum over every batch interval, so the float sums round differently.
Every trace row, count and realloc_checks record is unchanged, and so are
the six trace digests, added at this re-record.  Largest drift measured:
ledger totals of the six runs 1.6e-15 relative (one per-core idle energy of
a mostly busy core 7.8e-14); the sweep's energy_j and normalized fields
7.7e-16 (12 fields moved); on the grid of 408 runs above, run totals 4.4e-15.

To re-record after a deliberate numerics change, print the digests of the
current code with ``PYTHONPATH=src python tests/test_golden.py`` and copy only
the entries that moved.  A change meant to keep every trace row keeps
TRACE_DIGESTS and TRACE_FILE_DIGEST.

TRACE_FILE_DIGEST and SWEEP_FILE_DIGEST hash the files as written, so they
also see line ends (the trace file's CRLF), empty cells and the sweep CSV's
provenance header, which the row digests do not.
"""

import hashlib

import pytest

from coresleep.engine import write_trace_csv
from coresleep.harness import SweepSpec, emit, run_single, run_sweep
from coresleep.policies import PolicyKind

# sha256 of the trace rows of
# run_single(policy, m=m, seed=5, duration_ms=2000.0, collect_trace=True).
TRACE_DIGESTS = {
    (PolicyKind.PURE_DVS, 2):
        "08804358756016a72f4525592c1499ec6414e0006b2033ace7fdb675ae3d3305",
    (PolicyKind.LA_DVS, 2):
        "2cec0dbe97e5de454fb5c14c8ad51a9f69e88f98c4a2d3fff1dcb293c11bf309",
    (PolicyKind.LA_REALLOC, 2):
        "b25d48025f43e1e6b3bb30c03fd458ac07710bcca127f7c1128e0e71a5658bb2",
    (PolicyKind.PURE_DVS, 8):
        "4b45b06ee1816446b942b3bf7e7fcc792cb5af5871f46abbf119ce7f6f43c519",
    (PolicyKind.LA_DVS, 8):
        "11e7239eebf0b9b1e053e03b5b2232bf4a24183f67148136fd4233d832bf65ea",
    (PolicyKind.LA_REALLOC, 8):
        "29163cb36d57faa96172e5089f5f1a7cf00736c0096672cc89e199cac0936ea8",
}

# sha256 of the same trace rows plus the ledger totals.
RUN_DIGESTS = {
    (PolicyKind.PURE_DVS, 2):
        "660be58e26d4fe1a7b59fc04899b7c48c53405f19c2badf5fb22489ed27c2ce0",
    (PolicyKind.LA_DVS, 2):
        "87ea055215bb16ab3bb73dcc1b9672ce8288de53baf16daf7cfd9cbb27b0d6ad",
    (PolicyKind.LA_REALLOC, 2):
        "f4b9235170e9d6055f94556289dd7aaaa9bb34fa719b99c95cc7e0cfd787e3da",
    (PolicyKind.PURE_DVS, 8):
        "a314c84dab11cc289d7e33a9996da073bc3deb3eeac5fef28c53bc3555568131",
    (PolicyKind.LA_DVS, 8):
        "2bf4c2a31f8918c58113a3e6862593c655ff0b9d35dbebe99aa484b57246974d",
    (PolicyKind.LA_REALLOC, 8):
        "711e73f90a54ad95fd8c970e1e21578e8081fdef8e18f31ecf6360426f2c581c",
}

# sha256 of the data rows (header included, provenance comments excluded)
# of the CSV written for SWEEP_SPEC.
SWEEP_SPEC = dict(axis="U", values=(0.1, 0.5, 0.9), repetitions=2, duration_ms=500.0)
SWEEP_DIGEST = "6cbe19479e27536294498f4fecb81627fd0e1bd30fa5ab2999099b820f7df179"

# sha256 of the bytes of the trace file write_trace_csv writes for the
# (LA_REALLOC, 2) golden run, and of the whole CSV file written for SWEEP_SPEC.
TRACE_FILE_RUN = (PolicyKind.LA_REALLOC, 2)
TRACE_FILE_DIGEST = "a9f1e6c8bc9da16a3d9f9a2893ceba5152e124aea18bef5f7cb4e75a2f9f4a9d"
SWEEP_FILE_DIGEST = "1dc6f49eae904d74917d0869665b33d83700ffd375a694541c9544d0cec2f2e2"


def golden_run(params, policy, m):
    """(ledger, trace) of one golden run."""
    _, _, ledger, trace = run_single(
        params, policy, m=m, seed=5, duration_ms=2000.0, collect_trace=True
    )
    return ledger, trace


def run_digests(params, policy, m):
    """(trace digest, trace-and-ledger digest) of one golden run."""
    ledger, trace = golden_run(params, policy, m)
    h = hashlib.sha256()
    for row in trace:
        h.update(repr(row).encode())
        h.update(b"\n")
    trace_digest = h.hexdigest()
    totals = (
        ledger.total_j, ledger.busy_j, ledger.idle_j, ledger.switch_j,
        ledger.wake_count, ledger.failed_sleep_count, ledger.deadline_miss_count,
        ledger.realloc_count, ledger.realloc_checks,
    )
    h.update(repr(totals).encode())
    return trace_digest, h.hexdigest()


def trace_file_digest(params, path):
    write_trace_csv(golden_run(params, *TRACE_FILE_RUN)[1], path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_digests(params, path):
    """(data-row digest, file digest) of the CSV written for SWEEP_SPEC."""
    emit(run_sweep(SweepSpec(**SWEEP_SPEC), params=params), path)
    data = [ln for ln in path.read_text().splitlines(keepends=True) if not ln.startswith("#")]
    return (hashlib.sha256("".join(data).encode()).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest())


@pytest.fixture(scope="module")
def golden_sweep(params, tmp_path_factory):
    return sweep_digests(params, tmp_path_factory.mktemp("golden") / "golden.csv")


@pytest.mark.parametrize("policy, m", list(RUN_DIGESTS))
def test_run_single_trace_and_ledger_unchanged(params, policy, m):
    trace_digest, run_digest = run_digests(params, policy, m)
    assert trace_digest == TRACE_DIGESTS[(policy, m)]
    assert run_digest == RUN_DIGESTS[(policy, m)]


def test_sweep_csv_rows_unchanged(golden_sweep):
    assert golden_sweep[0] == SWEEP_DIGEST


def test_sweep_csv_file_bytes_unchanged(golden_sweep):
    assert golden_sweep[1] == SWEEP_FILE_DIGEST


def test_trace_file_bytes_unchanged(params, tmp_path):
    assert trace_file_digest(params, tmp_path / "trace.csv") == TRACE_FILE_DIGEST


if __name__ == "__main__":
    # Print the digests of the current code, in the layout above, for a
    # deliberate re-record: PYTHONPATH=src python tests/test_golden.py
    import tempfile
    from pathlib import Path

    from coresleep.power import default_power_params

    params = default_power_params()
    digests = {key: run_digests(params, *key) for key in RUN_DIGESTS}
    for name, k in (("TRACE_DIGESTS", 0), ("RUN_DIGESTS", 1)):
        print(f"{name} = {{")
        for policy, m in RUN_DIGESTS:
            print(f"    (PolicyKind.{policy.name}, {m}):\n        \"{digests[(policy, m)][k]}\",")
        print("}")
    with tempfile.TemporaryDirectory() as tmp:
        rows, whole = sweep_digests(params, Path(tmp) / "golden.csv")
        print(f'SWEEP_DIGEST = "{rows}"')
        print(f'TRACE_FILE_DIGEST = "{trace_file_digest(params, Path(tmp) / "trace.csv")}"')
        print(f'SWEEP_FILE_DIGEST = "{whole}"')
