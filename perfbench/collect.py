"""Run the benchmark over several seeds, on one checkout or alternating two.

    python3 perfbench/collect.py --seeds 1-10 base=../parent head=.

Each LABEL=CHECKOUT runs ``perfbench/run.py`` of that checkout from its root,
untraced, on every workload of BENCHMARK.json for its ``run_seconds``.  With
two checkouts the order alternates from one seed to the next.  Results go to
perfbench/out/results-LABEL.jsonl, one JSON line per run:
{"workload", "seed", "result"}.  Compare them with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", metavar="LABEL=CHECKOUT")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), metavar="FIRST-LAST")
    args = parser.parse_args(argv)

    sides = []
    for item in args.runs:
        label, _, checkout = item.partition("=")
        root = Path(checkout or ".").resolve()
        sides.append((label, root, HERE / "out" / f"results-{label}.jsonl"))
    (HERE / "out").mkdir(exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        for i, seed in enumerate(args.seeds):
            for label, root, out in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"{label} {workload} seed {seed}: exit {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "result": result}) + "\n")
                print(label, workload, seed, json.dumps(result["metrics"]), flush=True)


if __name__ == "__main__":
    main()
