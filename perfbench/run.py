"""coresleep benchmark: paired sweeps and simulate calls, timed from outside.

    python3 perfbench/run.py --workload u_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
``--check`` instead runs one round of a sweep workload, prints its digest and
requires a one-worker run of the same sweep to give the same CSV.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CONSTANTS = SRC / "coresleep" / "data" / "cmos70nm.conf"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer as tracing  # noqa: E402

# Fixed parameters of the sweeps: the paper's Fig. 3 setting, except that
# the horizon is 1 s instead of 10 s.  Each task set costs a different time
# per job, so a run must hold many task sets to be steady; see README.md.
FIXED = dict(u=0.3, e_sw_j=5e-4, m=2, cc_ratio=0.5, n_range=(10, 20),
             period_range_ms=(10.0, 100.0), duration_ms=1_000.0)
POLICIES = ("la_realloc", "la_dvs", "pure_dvs")
SETUP_PROBES = 15
SETUP_HORIZON_MS = 100.0
PRINT_TOL_J = 5e-7  # the CLI prints energies with six decimals
REFERENCE_S = 0.05
KERNEL_STEPS = 60_000
KERNEL_EVERY_S = 0.4
HASH_SEED = "0"


@dataclass(frozen=True)
class Sweep:
    """A slice of one of the paper's sweeps; a round is one run_sweep call
    over the whole grid with ``reps`` repetitions, then its CSV emitted."""

    axis: str
    values: tuple
    workers: int
    reps: int

    def spec(self, harness, base_seed, **overrides):
        fields = dict(FIXED, axis=self.axis, values=self.values, repetitions=self.reps,
                      base_seed=base_seed)
        fields.update(overrides)
        return harness.SweepSpec(**fields)


@dataclass(frozen=True)
class SimulateCalls:
    """``coresleep simulate --trace`` calls through cli.main; a round is one
    call per policy, each on its own instance."""

    cores: int = 4
    util: float = 0.3
    duration_ms: float = 1000.0

    def argv(self, seed, policy, trace_path, duration_ms=None):
        return ["simulate", "--cores", str(self.cores), "--util", repr(self.util),
                "--duration", repr(duration_ms or self.duration_ms), "--seed", str(seed),
                "--policy", policy, "--trace", str(trace_path)]


WORKLOADS = {
    "u_sweep": Sweep("U", tuple(round(0.1 * k, 10) for k in range(1, 10)), workers=1, reps=3),
    "core_sweep": Sweep("m", (4, 8, 16), workers=1, reps=4),
    "esw_sweep_2w": Sweep("E_sw", tuple(round(1e-4 * k, 14) for k in range(0, 11)),
                          workers=2, reps=4),
    "simulate_cli": SimulateCalls(),
}


def round_seed(seed, index, reps=1):
    """Base seed of round ``index``; rounds of one run never share instances."""
    return seed * 100_000 + index * reps


def import_program():
    """Import coresleep from this checkout's ``src``, nothing else."""
    if not (SRC / "coresleep" / "__init__.py").is_file():
        raise SystemExit(f"error: no coresleep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coresleep
    from coresleep import cli, engine, harness, policies, power

    if Path(coresleep.__file__).resolve().parent != SRC / "coresleep":
        raise SystemExit(f"error: imported coresleep from {coresleep.__file__}, not {SRC}")
    return argparse.Namespace(cli=cli, engine=engine, harness=harness, policies=policies,
                              power=power)


class Run:
    """State of one benchmark invocation: counts, problems, timings."""

    def __init__(self, cs, name, seed):
        self.cs = cs
        self.name = name
        self.seed = seed
        self.power = checks.ClosedFormPower(checks.read_constants(CONSTANTS))
        self.params = cs.power.default_power_params()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def problem(self, message):
        self.problems.append(message)
        print(f"check failed: {self.name} seed {self.seed}: {message}", file=sys.stderr)

    # -- sweeps --------------------------------------------------------------

    def sweep_round(self, sweep: Sweep, base_seed, csv_path, workers=None):
        """Run and emit one round; returns (result, seconds, CSV bytes)."""
        harness = self.cs.harness
        spec = sweep.spec(harness, base_seed)
        t0 = time.perf_counter()
        result = harness.run_sweep(spec, workers=workers or sweep.workers)
        harness.emit(result, csv_path)
        seconds = time.perf_counter() - t0
        return result, seconds, Path(csv_path).read_bytes()

    def check_sweep(self, sweep: Sweep, result, csv_bytes):
        """Properties every sweep result must have; returns its job count."""
        spec = result.spec
        self.attempted += len(spec.values) * spec.repetitions
        skipped = sum(result.skipped.values())
        self.failed += skipped
        if skipped:
            print(f"failed: {self.name} seed {self.seed}: {skipped} skipped repetitions "
                  f"at base seed {spec.base_seed}", file=sys.stderr)
        for row in result.rows:
            if not row.runs:
                continue  # every repetition here was skipped, and counted as failed
            if row.policy == "la_dvs" and row.normalized != 1.0:
                self.problem(f"la_dvs normalized to {row.normalized!r} at {row.value}")
            if row.misses and row.policy != "pure_dvs":
                self.problem(f"{row.misses} mean misses under {row.policy} at {row.value}")
            if row.policy == "pure_dvs" and row.misses:
                print(f"note: pure_dvs misses {row.misses} at {sweep.axis}={row.value}",
                      file=sys.stderr)
        print(f"digest {self.name} base_seed={spec.base_seed} "
              f"sha256={hashlib.sha256(csv_bytes).hexdigest()}")
        return self.sweep_jobs(spec)

    def instance(self, spec, value, rep):
        """The task set a repetition runs, drawn as the harness draws it,
        or None where the harness skips the repetition."""
        u, _e_sw, m, _cc = spec.fixed_for(value)
        found = self.cs.harness._instance_for(
            spec.base_seed + rep, spec.n_range, u * m, m, spec.period_range_ms,
            spec.max_partition_retries)
        return found and found[0]

    def sweep_jobs(self, spec):
        """Jobs of every engine run in a sweep; a skipped repetition has none."""
        jobs = 0
        horizon_ns = round(spec.duration_ms * 1_000_000)
        for value in spec.values:
            for rep in range(spec.repetitions):
                task_set = self.instance(spec, value, rep)
                if task_set is not None:
                    jobs += len(POLICIES) * checks.job_count(task_set, horizon_ns)
        return jobs

    def recheck_repetitions(self, result, value_index):
        """Re-run every repetition at one axis value with a trace and hold
        each run, and the sweep's mean, against the closed-form energy.
        Skipped repetitions are left out; check_sweep counted them as failed."""
        cs, spec = self.cs, result.spec
        value = spec.values[value_index]
        u, e_sw, m, cc = spec.fixed_for(value)
        horizon_ns = round(spec.duration_ms * 1_000_000)
        ran = [rep for rep in range(spec.repetitions)
               if self.instance(spec, value, rep) is not None]
        if not ran:
            return
        for policy in POLICIES:
            total = 0.0
            for rep in ran:
                task_set, _, ledger, trace = cs.harness.run_single(
                    self.params, cs.policies.PolicyKind(policy), m=m, u=u, e_sw_j=e_sw,
                    cc_ratio=cc, n_range=spec.n_range, period_range_ms=spec.period_range_ms,
                    duration_ms=spec.duration_ms, seed=spec.base_seed + rep, collect_trace=True)
                total += ledger.total_j
                for message in checks.trace_problems(
                        trace, duration_ns=horizon_ns, cores=m, power=self.power, e_sw_j=e_sw,
                        energy_j=ledger.total_j, energy_abs_tol=0.0,
                        jobs=checks.job_count(task_set, horizon_ns), wakes=ledger.wake_count,
                        switch_j=ledger.switch_j, misses=ledger.deadline_miss_count,
                        policy=policy):
                    self.problem(f"{policy} {spec.axis}={value} seed {spec.base_seed + rep}: "
                                 f"{message}")
            row = result.row(value, cs.policies.PolicyKind(policy))
            mean = total / len(ran)
            if abs(row.energy_j - mean) > 1e-12 * mean:
                self.problem(f"sweep reports {row.energy_j!r} J for {policy} at {value}, "
                             f"its repetitions re-run give {mean!r} J")

    def sweep_timed(self, sweep: Sweep, seconds, host):
        """Whole rounds until ``seconds`` of sweep time are measured."""
        csv_path = OUT / f"{self.name}.csv"
        measured = jobs = 0
        index = 0
        while measured < seconds:
            result, elapsed, csv_bytes = self.sweep_round(
                sweep, round_seed(self.seed, index, sweep.reps), csv_path)
            measured += elapsed
            jobs += self.check_sweep(sweep, result, csv_bytes)
            if index == 0:
                first = result
            host.between(elapsed, measured / seconds)
            index += 1
        rss = peak_rss_mib()  # before the traced re-runs below
        self.recheck_repetitions(first, random.Random(self.seed).randrange(len(sweep.values)))
        return jobs, measured, rss

    def sweep_traced(self, sweep: Sweep, seconds):
        """Rounds run untraced and then traced on the same inputs."""
        tracer = tracing.Tracer()
        plain = traced = 0.0
        index = 0
        while plain + traced < seconds:
            base_seed = round_seed(self.seed, index, sweep.reps)
            result, elapsed, csv_bytes = self.sweep_round(sweep, base_seed, OUT / f"{self.name}.csv")
            plain += elapsed
            self.check_sweep(sweep, result, csv_bytes)
            saved = tracing.install(tracer, self.cs)
            try:
                _, elapsed, traced_bytes = self.sweep_round(
                    sweep, base_seed, OUT / f"{self.name}-traced.csv")
            finally:
                tracing.uninstall(saved)
            traced += elapsed
            self.attempted += len(sweep.values) * sweep.reps
            if traced_bytes != csv_bytes:
                self.problem(f"traced sweep CSV differs from the untraced one at base seed {base_seed}")
            index += 1
        tracer.write(OUT / f"spans-{self.name}-seed{self.seed}.jsonl")
        return tracing.layer_metrics(
            tracer, top="harness.run_sweep", op="harness._run_repetition",
            harness_call="harness.run_sweep", writer="harness.emit", workers=sweep.workers,
            overhead_share=(traced - plain) / plain)

    def sweep_check_workers(self, sweep: Sweep):
        """The harness promises the same CSV on any worker count."""
        base_seed = round_seed(self.seed, 0, sweep.reps)
        result, _, many = self.sweep_round(sweep, base_seed, OUT / f"{self.name}.csv")
        self.check_sweep(sweep, result, many)
        _, _, one = self.sweep_round(sweep, base_seed, OUT / f"{self.name}-1w.csv", workers=1)
        print(f"digest {self.name} base_seed={base_seed} workers=1 "
              f"sha256={hashlib.sha256(one).hexdigest()}")
        if one != many:
            self.problem(f"{sweep.workers} workers and 1 worker give different CSVs")

    # -- simulate calls -------------------------------------------------------

    def simulate_call(self, calls: SimulateCalls, seed, policy, trace_path):
        """One cli.main call; returns (exit code, stdout, seconds)."""
        argv = calls.argv(seed, policy, trace_path)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.cs.cli.main(argv)
        return code, out.getvalue(), time.perf_counter() - t0

    def check_call(self, calls: SimulateCalls, seed, policy, code, stdout, trace_path):
        """Hold the printed summary against the trace file; returns jobs."""
        self.attempted += 1
        where = f"simulate seed {seed} {policy}"
        if code != 0:
            self.failed += 1
            self.problem(f"{where}: exit code {code}")
            return 0
        energy = re.search(r"energy_j=(\S+) .*switch=([^)]+)\)", stdout)
        counts = re.search(r"wakes=(\d+) failed_sleeps=\d+ reallocations=\d+ misses=(\d+)", stdout)
        if not (energy and counts):
            self.problem(f"{where}: unexpected output {stdout!r}")
            return 0
        task_set, _ = self.cs.harness._instance_for(
            seed, FIXED["n_range"], calls.util * calls.cores, calls.cores,
            FIXED["period_range_ms"], 50)
        horizon_ns = round(calls.duration_ms * 1_000_000)
        jobs = checks.job_count(task_set, horizon_ns)
        for message in checks.trace_problems(
                checks.read_trace_csv(trace_path), duration_ns=horizon_ns, cores=calls.cores,
                power=self.power, e_sw_j=FIXED["e_sw_j"], energy_j=float(energy.group(1)),
                energy_abs_tol=PRINT_TOL_J, jobs=jobs, wakes=int(counts.group(1)),
                switch_j=float(energy.group(2)), misses=int(counts.group(2)), policy=policy):
            self.problem(f"{where}: {message}")
        return jobs

    def simulate_timed(self, calls: SimulateCalls, seconds, host):
        """Whole rounds of calls until ``seconds`` of call time are measured."""
        trace_path = OUT / f"{self.name}-trace.csv"
        self.simulate_call(calls, self.seed, POLICIES[0], trace_path)  # warm-up, not counted
        measured = jobs = 0.0
        index = 0
        while measured < seconds:
            start = measured
            for policy in POLICIES:
                seed = round_seed(self.seed, index)
                code, stdout, elapsed = self.simulate_call(calls, seed, policy, trace_path)
                measured += elapsed
                jobs += self.check_call(calls, seed, policy, code, stdout, trace_path)
                index += 1
            host.between(measured - start, measured / seconds)
        return jobs, measured, peak_rss_mib()

    def simulate_traced(self, calls: SimulateCalls, seconds):
        tracer = tracing.Tracer()
        plain_path, traced_path = OUT / f"{self.name}-trace.csv", OUT / f"{self.name}-trace-traced.csv"
        self.simulate_call(calls, self.seed, POLICIES[0], plain_path)  # warm-up, not counted
        plain = traced = 0.0
        index = 0
        while plain + traced < seconds:
            for policy in POLICIES:
                seed = round_seed(self.seed, index)
                code, stdout, elapsed = self.simulate_call(calls, seed, policy, plain_path)
                plain += elapsed
                self.check_call(calls, seed, policy, code, stdout, plain_path)
                tracer.op = f"call:{index}"
                saved = tracing.install(tracer, self.cs)
                try:
                    _, traced_stdout, elapsed = self.simulate_call(calls, seed, policy, traced_path)
                finally:
                    tracing.uninstall(saved)
                traced += elapsed
                self.attempted += 1
                if traced_stdout != stdout or traced_path.read_bytes() != plain_path.read_bytes():
                    self.problem(f"traced simulate call {seed} {policy} differs from untraced")
                index += 1
        tracer.write(OUT / f"spans-{self.name}-seed{self.seed}.jsonl")
        return tracing.layer_metrics(
            tracer, top="cli.main", op="harness.run_single", harness_call="harness.run_single",
            writer="engine.write_trace_csv", workers=1, overhead_share=(traced - plain) / plain)

    # -- set-up ------------------------------------------------------------

    def setup_probe_argv(self, workload):
        """A fresh interpreter that imports coresleep and makes one short call."""
        if isinstance(workload, Sweep):
            first = workload.spec(self.cs.harness, self.seed, values=workload.values[:1],
                                  repetitions=1, duration_ms=SETUP_HORIZON_MS)
            call = {"sweep": {k: getattr(first, k) for k in (
                "axis", "values", "u", "e_sw_j", "m", "cc_ratio", "n_range", "period_range_ms",
                "duration_ms", "repetitions", "base_seed")}, "workers": workload.workers}
        else:
            call = {"argv": workload.argv(self.seed, POLICIES[0], OUT / f"{self.name}-setup.csv",
                                          duration_ms=SETUP_HORIZON_MS)}
        call["src"] = str(SRC)
        return [sys.executable, str(HERE / "setup_probe.py"), json.dumps(call)]


class HostSpeed:
    """Set-up probes and reference-kernel samples, spread over a timed run.

    The host's speed drifts by tens of percent over seconds to minutes, the
    same for the program and for a fixed pure-Python kernel; README.md has
    the measurements.  Timings are therefore reported in reference seconds:
    host seconds times REFERENCE_S over the mean time of the kernel, sampled
    between the run's rounds.
    """

    def __init__(self, probe_argv):
        self.probe_argv = probe_argv
        self.setup = []    # seconds per set-up probe
        self.kernel = []   # seconds per reference-kernel sample
        self._timed = 0.0  # timed seconds not yet matched by a kernel sample

    def between(self, timed, share):
        """Called after each round with its timed seconds and the share of
        the run done: one kernel sample per KERNEL_EVERY_S of timed work."""
        self._timed += timed
        while self._timed >= KERNEL_EVERY_S or not self.kernel:
            self._timed = max(0.0, self._timed - KERNEL_EVERY_S)
            t0 = time.perf_counter()
            reference_kernel()
            self.kernel.append(time.perf_counter() - t0)
        while len(self.setup) < SETUP_PROBES and len(self.setup) <= share * SETUP_PROBES:
            done = subprocess.run(self.probe_argv, capture_output=True, text=True,
                                  timeout=120, check=True)
            self.setup.append(float(done.stdout.split()[-1]))

    def reference_seconds(self, host_seconds):
        return host_seconds * REFERENCE_S / statistics.fmean(self.kernel)


def reference_kernel():
    """Fixed pure-Python work in the simulator's style: a bounded event heap,
    tuple entries, per-core float accumulators.  About REFERENCE_S on an
    unloaded core of the 2-CPU host the figures in README.md come from."""
    rng = random.Random(12345)
    heap, energy = [], [0.0] * 8
    for i in range(KERNEL_STEPS):
        heapq.heappush(heap, (rng.random(), i & 7))
        if len(heap) > 32:
            t, core = heapq.heappop(heap)
            energy[core] += t * 1e-3
    return sum(energy)


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def pin_hash_seed(argv):
    """Re-execute this script in place with string hashing fixed.

    Each interpreter draws its own hash seed, which moves dict and set
    layouts and with them the program's speed by a few percent from process
    to process; README.md has the measurements.  The set-up probes and pool
    workers inherit the fixed seed.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="one round of a sweep, its digest, and the same sweep on one worker")
    args = parser.parse_args(argv)

    cs = import_program()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = Run(cs, args.workload, args.seed)
    is_sweep = isinstance(workload, Sweep)

    if args.check:
        if not is_sweep:
            parser.error("--check takes a sweep workload")
        run.sweep_check_workers(workload)
        return 1 if run.problems else 0

    if args.trace:
        layer = (run.sweep_traced if is_sweep else run.simulate_traced)(workload, args.seconds)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        host = HostSpeed(run.setup_probe_argv(workload))
        timed = run.sweep_timed if is_sweep else run.simulate_timed
        jobs, seconds, rss = timed(workload, args.seconds, host)
        host.between(0.0, 1.0)  # the remaining set-up probes
        values = {"setup_s": host.reference_seconds(statistics.median(host.setup)),
                  "jobs_per_s": jobs / host.reference_seconds(seconds), "peak_rss_mib": rss}
        print(f"host seconds: setup {statistics.median(host.setup):.6g}, timed {seconds:.6g}; "
              f"reference kernel mean {statistics.fmean(host.kernel):.6g} s "
              f"over {len(host.kernel)} samples", file=sys.stderr)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    pin_hash_seed(sys.argv[1:])
    sys.exit(main())
