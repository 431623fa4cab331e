"""Mutation suite: every listed edit of the program must fail a test.

Each mutant is an exact-text edit of one file under ``src/coresleep``.  For
each, the script copies the tree (``src``, ``tests``, ``demos`` and
``pyproject.toml``) to a temporary directory, checks that the old text
occurs there exactly once (so a refactor that moves the code fails loudly
instead of testing nothing; ``test_mutants.py`` checks the same in the unit
suite), applies the edit and runs pytest on every test module but the
acceptance module and ``test_mutants.py``, two mutants at a time.  The
unmutated copy runs first and must pass.  The script prints each mutant
as killed, with the first test that failed, or survived, and exits non-zero
when a mutant survives, an old text does not match once, or the unmutated
copy fails.

Run from anywhere, with the standard library and pytest:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
PARALLEL = 2

# (name, file under src/coresleep, old text, new text)
MUTANTS = [
    ("_reallocate without the backlog pin", "engine.py",
     "if run.done >= run.next_index - 2:", "if True:"),
    ("_complete without run.done = job.index", "engine.py",
     "run.done = job.index", "pass"),
    ("_complete term guard removed", "engine.py",
     "if job.index == run.next_index - 1:", "if True:"),
    ("_complete without the term update", "engine.py",
     "self._add_dyn_util(core, term - run.term)", "pass"),
    ("_take_due takes only the first due completion", "engine.py",
     "while due_heap and int((due_heap[0][0] - work0) / speed + 0.5) == dt_ns:", "while False:"),
    ("released jobs queued before the batch's completions", "engine.py",
     "            if due == t:\n",
     "            for run, entry in released:\n"
     "                heappush(cores[run.core].ready, entry)\n"
     "            released = ()\n            if due == t:\n"),
    ("horizon batch ends before its completions", "engine.py",
     "            released = ()\n",
     "            if t == duration:\n                break\n            released = ()\n"),
    ("_dispatch keeps the preempted entry", "engine.py",
     "self._due.remove((core.due_w, core.index))\n            heapq.heapify(self._due)", "pass"),
    ("_dispatch leaves the heap unordered after a removal", "engine.py",
     "heapq.heapify(self._due)", "pass"),
    ("_sleep without _settle", "engine.py",
     "self._settle(core)\n        core.state = SLEEPING", "core.state = SLEEPING"),
    ("sleep only when the gap exceeds t_th", "engine.py",
     "if nxt - t_ns >= self.t_th_ns:", "if nxt - t_ns > self.t_th_ns:"),
    ("gap read 1 ns short", "engine.py",
     "home.nexts[0] - t_ns,", "home.nexts[0] - t_ns - 1,"),
    ("home core not excluded from the options", "engine.py",
     "for i in self.realloc_candidates if i != home.index", "for i in self.realloc_candidates"),
    ("pending load summed over reversed(home.members)", "engine.py",
     "for member in home.members:", "for member in reversed(home.members):"),
    ("select_core breaks ties by the highest index", "policies.py",
     "(u_dyn, idx) < best", "(u_dyn, -idx) < (best[0], -best[1])"),
    ("gate >= becomes >", "policies.py",
     "dt_ns + wcet_ns / critical_scale >= t_th_ns", "dt_ns + wcet_ns / critical_scale > t_th_ns"),
    ("run_sweep starts a process per worker", "harness.py",
     "processes = min(workers, len(jobs))", "processes = workers"),
    ("run_sweep keeps its worker context", "harness.py",
     "_WORKER_CTX.clear()", "pass"),
    ("queued jobs due at the horizon not counted as misses", "engine.py",
     "if job.deadline_ns <= duration:", "if job.deadline_ns < duration:"),
    ("run_single returns None without a feasible partition", "harness.py",
     'raise PartitionError(f"no feasible partition for seed {seed} after resampling")',
     "return None"),
    ("provenance header drops the axis line", "harness.py",
     "for field in fields(spec):", "for field in fields(spec)[1:]:"),
    ("sweep CSV row drops its last field", "harness.py",
     "[spec.axis, *astuple(row)]", "[spec.axis, *astuple(row)][:-1]"),
    ("reduce skips a point's first repetition", "harness.py",
     "raw[vi * reps:(vi + 1) * reps]", "raw[vi * reps + 1:(vi + 1) * reps]"),
    ("check_run_input accepts a cc ratio of 0", "workload.py",
     'name == "cc_ratio" and not (0.0 < value <= 1.0)',
     'name == "cc_ratio" and not (0.0 <= value <= 1.0)'),
    ("SimConfig.__post_init__ skips its run-input checks", "engine.py",
     "            check_run_input(name, value)\n", "            pass\n"),
    ("core-count rule accepts a whole float", "workload.py",
     'name == "m" and not (isinstance(value, int) and value >= 1)',
     'name == "m" and not (math.isfinite(value) and value >= 1 and int(value) == value)'),
    ("SweepResult.skipped returns each row's runs", "harness.py",
     "self.spec.repetitions - row.runs for row", "row.runs for row"),
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def copy_tree(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path) -> tuple[bool, str]:
    """(passed, first failing test) of pytest on ``tree`` without the
    acceptance module, stopping at the first failure.  ``test_mutants.py``
    is left out too: it would fail on every mutated copy by itself."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "tests", "--ignore=tests/test_acceptance.py", "--ignore=tests/test_mutants.py"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return True, ""
    first = FAILED.search(proc.stdout)
    return False, first.group(1) if first else f"pytest exit {proc.returncode}"


def run_mutant(mutant) -> tuple[str, str]:
    """(outcome, detail): killed with its first failing test, survived, or
    an error when the old text does not occur exactly once."""
    _name, file, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / "src" / "coresleep" / file
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            return "error", f"old text occurs {count} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        passed, first = run_tests(tree)
    return ("survived", "") if passed else ("killed", first)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        copy_tree(Path(tmp))
        passed, first = run_tests(Path(tmp))
    if not passed:
        print(f"the unmutated tree fails ({first}); no mutant can be judged")
        return 1
    bad = 0
    with ThreadPoolExecutor(PARALLEL) as pool:
        for mutant, (outcome, detail) in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
            name, file, _old, _new = mutant
            print(f"{outcome:8}  {file}: {name}" + (f"  {detail}" if detail else ""), flush=True)
            bad += outcome != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
