"""Command-line entry points: a single simulation run and parameter sweeps."""

from __future__ import annotations

import argparse
import math
import os
import sys

from .engine import SimConfig, write_trace_csv
from .harness import DEFAULT_GRIDS, SweepSpec, emit, run_single, run_sweep
from .partition import PartitionError
from .policies import PolicyKind
from .power import PowerModelError, default_power_params, load_power_params
from .workload import WorkloadError

# 500 times the largest canonical grid (20 points), three million runs at
# the default 100 repetitions: a larger --sweep grid is a mistyped STEP.
MAX_GRID_POINTS = 10_000


def _pair(text, cast, sep=":"):
    a, _, b = text.partition(sep)
    if not b:
        raise argparse.ArgumentTypeError(f"expected MIN{sep}MAX, got {text!r}")
    return cast(a), cast(b)


def _sweep_axis(text):
    axis, _, grid = text.partition("=")
    if not grid:
        # bare axis name: use the canonical grid for that experiment
        if axis not in DEFAULT_GRIDS:
            raise argparse.ArgumentTypeError(f"unknown axis {axis!r}")
        return axis, DEFAULT_GRIDS[axis]
    start, _, rest = grid.partition(":")
    stop, _, step = rest.partition(":")
    if not step:
        raise argparse.ArgumentTypeError("expected AXIS=START:STOP:STEP or a bare axis name")
    start, stop, step = float(start), float(stop), float(step)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("need finite values with STEP > 0 and STOP >= START")

    def advance(v):
        if v + step == v:
            raise argparse.ArgumentTypeError(f"STEP {step!r} does not advance the value {v!r}")
        return v + step

    advance(start)   # a STEP too small for START is named before the point count
    if (stop - start) / step >= MAX_GRID_POINTS:   # floor(this) + 1 points exceed it
        raise argparse.ArgumentTypeError(
            f"grid {grid!r} has more than {MAX_GRID_POINTS:,} points")
    values = []
    v = start
    while v <= stop + 1e-6 * step:   # a tolerance relative to STEP, for its round-off
        values.append(int(round(v)) if axis == "m" else round(v, 12))
        v = advance(v)
    return axis, tuple(values)


def _add_common(parser):
    parser.add_argument("--constants", metavar="FILE", default=None,
                        help="technology constants file (default: packaged 70nm set)")
    parser.add_argument("--cores", type=int, default=SweepSpec.m, metavar="M")
    parser.add_argument("--util", type=float, default=SweepSpec.u, metavar="U",
                        help="per-core average utilization")
    parser.add_argument("--esw", type=float, default=SweepSpec.e_sw_j, metavar="J",
                        help="sleep-to-active switching energy")
    parser.add_argument("--cc-ratio", type=float, default=SweepSpec.cc_ratio, metavar="R",
                        help="mean actual-to-worst-case execution ratio")
    parser.add_argument("--tasks", type=lambda s: _pair(s, int), default=SweepSpec.n_range,
                        metavar="N_MIN:N_MAX")
    parser.add_argument("--periods", type=lambda s: _pair(s, float),
                        default=SweepSpec.period_range_ms, metavar="MS_MIN:MS_MAX")
    parser.add_argument("--duration", type=float, default=SweepSpec.duration_ms, metavar="MS")
    parser.add_argument("--seed", type=int, default=SweepSpec.base_seed, metavar="S")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coresleep",
        description="Energy-aware partitioned EDF simulation on a multicore "
                    "with global DVS, core sleep, and task reallocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="one run under one policy")
    _add_common(sim)
    sim.add_argument("--policy", choices=[p.value for p in PolicyKind],
                     default=SimConfig.policy.value)
    sim.add_argument("--trace", metavar="OUT.CSV", default=None,
                     help="write the event trace")

    sweep = sub.add_parser("sweep", help="paired comparison over one axis")
    _add_common(sweep)
    sweep.add_argument("--sweep", type=_sweep_axis, required=True,
                       metavar="AXIS=START:STOP:STEP",
                       help="axis is one of U, E_sw, m, cc_ratio; a bare axis "
                            "name uses its canonical experiment grid")
    sweep.add_argument("--runs", type=int, default=SweepSpec.repetitions, metavar="K")
    sweep.add_argument("--out", required=True, metavar="PATH")
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel repetitions; output is identical either way")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A missing output directory, or an output path that is one, fails
        # before the run, not after it.
        out = args.trace if args.command == "simulate" else args.out
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise FileNotFoundError(f"output directory of {out!r} does not exist")
        if out and os.path.isdir(out):
            raise IsADirectoryError(f"output path {out!r} is a directory")
        params = load_power_params(args.constants) if args.constants else default_power_params()
        # The inputs a single run and a sweep share.
        inputs = dict(m=args.cores, u=args.util, e_sw_j=args.esw, cc_ratio=args.cc_ratio,
                      n_range=args.tasks, period_range_ms=args.periods,
                      duration_ms=args.duration)
        if args.command == "simulate":
            task_set, assignment, ledger, trace = run_single(
                params, PolicyKind(args.policy), seed=args.seed,
                collect_trace=args.trace is not None, **inputs,
            )
            if args.trace:
                write_trace_csv(trace, args.trace)
            print(f"tasks={len(task_set)} total_utilization={task_set.total_utilization:.4f}")
            print(f"per-core utilization: "
                  + " ".join(f"{u:.4f}" for u in assignment.core_utilization))
            print(f"energy_j={ledger.total_j:.6f} "
                  f"(busy={ledger.busy_total_j:.6f} idle={ledger.idle_total_j:.6f} "
                  f"switch={ledger.switch_j:.6f})")
            print(f"wakes={ledger.wake_count} failed_sleeps={ledger.failed_sleep_count} "
                  f"reallocations={ledger.realloc_count} misses={ledger.deadline_miss_count}")
        else:
            axis, values = args.sweep
            spec = SweepSpec(axis=axis, values=values, repetitions=args.runs,
                             base_seed=args.seed, **inputs)
            result = run_sweep(spec, params=params, workers=args.workers)
            for value, skipped in result.skipped.items():
                if skipped == spec.repetitions:
                    print(f"warning: {axis}={value!r}: all {skipped} repetitions skipped "
                          f"(no feasible partition); its rows are NaN", file=sys.stderr)
            emit(result, args.out)
            print(f"wrote {args.out}")
    except (PowerModelError, WorkloadError, PartitionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
