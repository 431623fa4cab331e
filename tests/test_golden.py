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
        "3ee7a77607b1fb5b6bcea5466bf5d12605d9a2ad2cf614dc18a52a7e4a6dca2a",
    (PolicyKind.LA_DVS, 2):
        "1d0947386361efeaa462175463fad24463da967b40b067b7a3799819c83813d0",
    (PolicyKind.LA_REALLOC, 2):
        "660ee893111f16a7d0fd4a5f8bef99f5624c29e056b013629c928344626490af",
    (PolicyKind.PURE_DVS, 8):
        "546ad107c27385bf9a1ec12bbaf43eb7eb34e5ac9ff8247950a6e43a21289436",
    (PolicyKind.LA_DVS, 8):
        "f5d441edcd1fa9f212764158d4dede0c9ac5e2e6fc58255616f6f0a7908fa5a4",
    (PolicyKind.LA_REALLOC, 8):
        "fe953fc3a28e3c0e1aff518dac31ce202f0a0bfbb60877a718a3c186531f85f7",
}

# sha256 of the data rows (header included, provenance comments excluded)
# of the CSV written for SWEEP_SPEC.
SWEEP_SPEC = dict(axis="U", values=(0.1, 0.5, 0.9), repetitions=2, duration_ms=500.0)
SWEEP_DIGEST = "78519405765d6fd579281f0f3ebfbaa7a7a44c87a67e60902290d2e438134d76"


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
