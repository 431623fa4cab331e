"""Spans around the calls into coresleep's modules, recorded from outside.

``install`` replaces module attributes of the program with wrappers that
time each call; ``uninstall`` puts the originals back.  Calls that happen
once per sweep, repetition or engine run become individual spans (name,
start, end, parent span, and the repetition or call they belong to).  Calls
that happen many times per job (power evaluations, execution-time draws,
utilization scans, the reallocation hook) are only counted and timed in
aggregate, so a traced run does not hold millions of spans.  Utilization
scans and speed recomputations are only counted: they are engine work, and
timing each would triple the cost of a traced run at m = 16.  A span's self
time is its duration minus the time of the timed calls made inside it.

Pool workers are forked from the benchmark process with the wrappers in
place; each repetition's spans travel back with its result.
"""

from __future__ import annotations

import json
import multiprocessing.pool
import os
from collections import Counter
from time import perf_counter_ns

import checks


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.op = None
        self.reset()

    def reset(self):
        self.spans = []            # (id, parent id, op, name, start ns, end ns)
        self.calls = Counter()     # name -> calls
        self.total_ns = Counter()  # name -> time inside the call
        self.self_ns = Counter()   # name -> the same minus wrapped calls inside
        self.counts = Counter()    # jobs, commits, instances, rows
        self._stack = []           # open calls: [span id or None, start ns, child ns]
        self._next_id = 0

    def call(self, name, fn, args, kwargs, keep, after):
        stack = self._stack
        span_id = parent = None
        if keep:
            self._next_id += 1
            span_id = f"{os.getpid()}.{self._next_id}"
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
        frame = [span_id, perf_counter_ns(), 0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - frame[2]
            if keep:
                self.spans.append((span_id, parent, self.op, name, frame[1], end))
        if after is not None:
            after(self.counts, result, args)
        return result

    def export(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "total_ns": self.total_ns,
                "self_ns": self.self_ns, "counts": self.counts}

    def merge(self, exported: dict, parent):
        for span_id, span_parent, op, name, start, end in exported["spans"]:
            self.spans.append((span_id, span_parent or parent, op, name, start, end))
        for key in ("calls", "total_ns", "self_ns", "counts"):
            getattr(self, key).update(exported[key])

    def write(self, path):
        """Write every span, then one aggregate line per wrapped name."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"name": name, "calls": self.calls[name],
                                     "total_ns": self.total_ns[name],
                                     "self_ns": self.self_ns[name]}) + "\n")


def _count_instance(counts, result, _args):
    counts["instances"] += result is not None


def _count_engine_run(counts, result, args):
    config, task_set = args[0], args[1]
    counts["jobs"] += checks.job_count(task_set, round(config.duration_ms * 1_000_000))
    counts["commits"] += result[0].realloc_count


def _count_sweep_rows(counts, _result, args):
    counts["rows"] += len(args[0].rows)


def _count_trace_rows(counts, _result, args):
    counts["rows"] += len(args[0])


def _targets(cs):
    """(owner, attribute, span name, mode, after-hook) for every call
    boundary between the modules, under the name each caller uses.  Mode is
    "span" (kept as a span), "time" (timed in aggregate) or "count"."""
    harness, engine, policies, power, cli = cs.harness, cs.engine, cs.policies, cs.power, cs.cli
    table = power.PowerTable
    return [
        (cli, "main", "cli.main", "span", None),
        (cli, "run_single", "harness.run_single", "span", None),
        (cli, "write_trace_csv", "engine.write_trace_csv", "span", _count_trace_rows),
        (harness, "run_sweep", "harness.run_sweep", "span", None),
        (harness, "emit", "harness.emit", "span", _count_sweep_rows),
        (harness, "_instance_for", "harness._instance_for", "span", _count_instance),
        (harness, "generate_task_set", "workload.generate_task_set", "span", None),
        (harness, "ltf_partition", "partition.ltf_partition", "span", None),
        (harness, "derive_speeds", "power.derive_speeds", "span", None),
        (engine, "derive_speeds", "power.derive_speeds", "span", None),
        (engine, "sleep_threshold", "power.sleep_threshold", "span", None),
        (table, "__init__", "power.PowerTable", "span", None),
        (engine, "run", "engine.run", "span", _count_engine_run),
        (table, "power", "power.eval", "time", None),
        (engine, "draw_actual_ratio", "workload.draw_actual_ratio", "time", None),
        (policies, "core_dynamic_utilization", "policies.core_dynamic_utilization", "count", None),
        (policies, "policy_speed", "policies.policy_speed", "count", None),
        (policies, "upon_task_release", "policies.upon_task_release", "time", None),
        (policies, "select_core", "policies.select_core", "time", None),
    ]


# The repetition wrapper is sent to pool workers by import path, so it and
# what it reads live at module level; install and uninstall set them.
_ACTIVE: Tracer | None = None
_RUN_REPETITION = None


def traced_repetition(job):
    tracer = _ACTIVE
    tracer.op = f"rep:{job[0]}:{job[1]}"
    if os.getpid() == tracer.pid:
        return tracer.call("harness._run_repetition", _RUN_REPETITION, (job,), {}, True, None)
    tracer.reset()  # drop what the fork copied from the benchmark process
    result = tracer.call("harness._run_repetition", _RUN_REPETITION, (job,), {}, True, None)
    return result, tracer.export()


class TracedPool(multiprocessing.pool.Pool):
    """The harness's pool, gathering the spans its workers send back.

    Workers must be forked: only then do they start with the wrappers and
    this module's globals in place.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, context=multiprocessing.get_context("fork"), **kwargs)

    def map(self, func, iterable, chunksize=None):
        tracer = _ACTIVE
        pairs = tracer.call("harness.pool_map", super().map, (func, iterable, chunksize), {},
                            True, None)
        map_span = tracer.spans[-1][0]
        results = []
        for result, exported in pairs:
            tracer.merge(exported, parent=map_span)
            results.append(result)
        return results


def install(tracer: Tracer, cs) -> list:
    """Wrap every call boundary; returns what ``uninstall`` needs."""
    global _ACTIVE, _RUN_REPETITION
    saved = []

    def replace(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for owner, attr, name, mode, after in _targets(cs):
        fn = owner.__dict__[attr]
        if mode == "count":
            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                tracer.calls[_name] += 1
                return _fn(*args, **kwargs)
        else:
            def wrapper(*args, _fn=fn, _name=name, _keep=mode == "span", _after=after, **kwargs):
                return tracer.call(_name, _fn, args, kwargs, _keep, _after)
        replace(owner, attr, wrapper)
    _ACTIVE, _RUN_REPETITION = tracer, cs.harness._run_repetition
    replace(cs.harness, "_run_repetition", traced_repetition)
    replace(cs.harness, "Pool", TracedPool)
    return saved


def uninstall(saved: list):
    global _ACTIVE, _RUN_REPETITION
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    _ACTIVE = _RUN_REPETITION = None


def _per(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, *, top: str, op: str, harness_call: str, writer: str,
                  workers: int, overhead_share: float) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    ``top`` is the call the user makes (``harness.run_sweep`` or
    ``cli.main``), ``op`` one operation inside it, ``harness_call`` the
    harness entry whose self time is the harness's own work, and ``writer``
    the call that writes the result file.
    """
    T, S, C, n = tracer.total_ns, tracer.self_ns, tracer.calls, tracer.counts
    jobs = n["jobs"]
    setup_ns = T["power.derive_speeds"] + T["power.sleep_threshold"] + T["power.PowerTable"]

    def mean_ms(name):
        return _per(T[name], C[name]) / 1e6

    def mean_us(name):
        return _per(T[name], C[name]) / 1e3

    return {
        "power.setup_ms": (_per(setup_ns, C[top]) / 1e6, "ms"),
        "power.eval_calls_per_job": (_per(C["power.eval"], jobs), "count"),
        "power.eval_us": (mean_us("power.eval"), "us"),
        "workload.generate_ms": (mean_ms("workload.generate_task_set"), "ms"),
        "workload.generate_calls_per_instance": (
            _per(C["workload.generate_task_set"], n["instances"]), "count"),
        "workload.draw_us": (mean_us("workload.draw_actual_ratio"), "us"),
        "partition.ltf_ms": (mean_ms("partition.ltf_partition"), "ms"),
        "harness.instance_ms": (mean_ms("harness._instance_for"), "ms"),
        "harness.rep_ms": (mean_ms(op), "ms"),
        "harness.reduce_ms": (_per(S[harness_call], C[harness_call]) / 1e6, "ms"),
        "harness.worker_busy_share": (_per(T[op], workers * T[top]), "ratio"),
        "output.write_ms": (mean_ms(writer), "ms"),
        "output.rows_per_s": (_per(n["rows"], T[writer] / 1e9), "row/s"),
        "engine.run_ms": (mean_ms("engine.run"), "ms"),
        "engine.self_ms": (_per(S["engine.run"], C["engine.run"]) / 1e6, "ms"),
        "engine.jobs_per_s": (_per(jobs, T["engine.run"] / 1e9), "job/s"),
        "engine.util_scans_per_job": (_per(C["policies.core_dynamic_utilization"], jobs), "count"),
        "engine.speed_recomputes_per_job": (_per(C["policies.policy_speed"], jobs), "count"),
        "policies.hook_us": (mean_us("policies.upon_task_release"), "us"),
        "policies.select_us": (mean_us("policies.select_core"), "us"),
        "policies.select_calls_per_commit": (_per(C["policies.select_core"], n["commits"]), "count"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
