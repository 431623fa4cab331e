"""Set-up time of coresleep in a fresh interpreter.

Argument: a JSON object with ``src`` (the checkout's source directory) and
either ``sweep`` (SweepSpec fields) with ``workers``, or ``argv`` for
cli.main.  Prints the seconds from before ``import coresleep`` to the first
result of that one short call.
"""

import json
import sys
import time

t0 = time.perf_counter()
call = json.loads(sys.argv[1])
sys.path.insert(0, call["src"])

import contextlib  # noqa: E402
import io  # noqa: E402

from coresleep import cli, harness  # noqa: E402

if "sweep" in call:
    fields = call["sweep"]
    for key in ("values", "n_range", "period_range_ms"):
        fields[key] = tuple(fields[key])
    harness.run_sweep(harness.SweepSpec(**fields), workers=call["workers"])
else:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(call["argv"]) != 0:
            sys.exit("simulate call failed")
print(time.perf_counter() - t0)
