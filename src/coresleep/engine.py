"""Deterministic discrete-event simulator.

Per-core preemptive EDF dispatch, a single global speed shared by all cores,
sleep-state management with a break-even threshold, wake-up switching energy,
and exact piecewise-constant energy integration between events.

All running cores run at the one global speed, so the engine keeps two
clocks instead of per-core progress: a work clock W (the integral of the
speed over time) and an energy clock E (the integral of the power one awake
core draws).  Each batch of equal-time events advances both in O(1).  A
running core holds the value of W at which its job ends, and a completion
heap holds one entry per running core, ordered by those values (a preemption
takes the preempted job's entry out), so a speed change re-times no core:
the next completion instant is t + round((due_w - W) / speed) for the top
entry, timed from the latest batch.  When an awake core's state changes (a
start from idle, a completion, a sleep, the end of the run) it charges the
energy clock's advance since that state began to its busy or idle energy; a
wake starts the count anew.

Releases wait in the event heap.  Equal-time events are handled releases
first (by task id), then completions (by core index); then the released jobs
are queued, and each sleeping core the batch left with ready work wakes, by
core index.  Integer-nanosecond timestamps make every run bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from . import policies
from .partition import Assignment
from .policies import PolicyKind
from .power import PowerParams, PowerTable, derive_speeds, sleep_threshold
from .workload import NS_PER_MS, Job, TaskSet, draw_actual_ratio, left_sum

ACTIVE, SLEEPING = 0, 1
NEVER = float("inf")
# Utilization terms and sums are exact integers in units of 2**-62 (any order).
UTIL_UNIT = 2 ** 62

TRACE_COLUMNS = ("time_ns", "core", "event", "task", "detail")


class EngineError(RuntimeError):
    """An internal invariant was violated during simulation."""


class TaskRun:
    """Mutable per-task simulation state: current home core, the indices of
    the latest completed job and of the next to release (jobs complete in
    order), and the task's private draw stream for actual execution times."""

    __slots__ = ("task", "core", "done", "next_index", "cc_rng", "full", "term")

    def __init__(self, task, core_index, seed):
        self.task = task
        self.core = core_index
        # full is wcet/P; term (cycle-conserving EDF) is wcet/P while the
        # current invocation is pending and cc/P once it has finished.
        self.full = round(task.utilization * UTIL_UNIT)
        self.term = self.full
        self.done = 0
        self.next_index = 1
        # Stream keyed by (run seed, task id): identical across policies so
        # paired comparisons see the same actual execution times per job.
        self.cc_rng = random.Random(f"{seed}:{task.id}")


class Core:
    __slots__ = (
        "index", "members", "nexts", "ready", "state", "running", "dyn_util", "static_util",
        "due_w", "since_j",
    )

    def __init__(self, index):
        self.index = index
        self.members = []          # TaskRun list, sorted by task id
        self.nexts = []            # heap of the members' next release instants
        # heap of (deadline, task id, job) of the unfinished jobs released
        # before the current batch (running included): the EDF pick is the top
        self.ready = []
        self.state = ACTIVE
        self.running = None
        self.dyn_util = self.static_util = 0   # members' Σ term and Σ full
        # The work clock's value at the running job's end; read only while a
        # job runs.
        self.due_w = NEVER
        # The energy clock's value when the core's busy or idle state began.
        self.since_j = 0.0


@dataclass
class EnergyLedger:
    """Energy and event accounting for one run.  The total is the sum of its
    parts by construction."""

    busy_j: list[float]
    idle_j: list[float]
    switch_j: float = 0.0
    wake_count: int = 0
    failed_sleep_count: int = 0
    deadline_miss_count: int = 0
    realloc_count: int = 0
    # One record per reallocation commit: (dest static util, dest dynamic
    # util, source dynamic util, speed before, speed after)
    realloc_checks: list[tuple] = field(default_factory=list)

    @property
    def busy_total_j(self) -> float:
        return left_sum(self.busy_j)

    @property
    def idle_total_j(self) -> float:
        return left_sum(self.idle_j)

    @property
    def total_j(self) -> float:
        return left_sum(self.busy_j) + left_sum(self.idle_j) + self.switch_j


@dataclass
class SimConfig:
    """Everything one run depends on besides the task set and partition."""

    params: PowerParams
    cores: int = 2
    duration_ms: float = 10_000.0
    e_sw_j: float = 5e-4
    cc_mean_ratio: float = 0.5
    policy: PolicyKind = PolicyKind.LA_REALLOC
    seed: int = 0
    power_table: PowerTable | None = None
    # Overrides for pinned-scenario tests; None derives them from the model.
    critical_scale_override: float | None = None
    t_th_ms_override: float | None = None
    collect_trace: bool = False

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("need at least one core")
        if not (math.isfinite(self.duration_ms) and round(self.duration_ms * NS_PER_MS) >= 1):
            raise ValueError("duration must be finite and at least 1 ns")
        if not (math.isfinite(self.e_sw_j) and self.e_sw_j >= 0):
            raise ValueError("switching overhead must be finite and nonnegative")
        if not (0.0 < self.cc_mean_ratio <= 1.0):
            raise ValueError("cc mean ratio must be in (0, 1]")
        scale = self.critical_scale_override
        if scale is not None and not (0.0 < scale <= 1.0):
            raise ValueError("critical scale override must be in (0, 1]")
        t_th = self.t_th_ms_override
        if t_th is not None and not (math.isfinite(t_th) and t_th >= 0):
            raise ValueError("sleep threshold override must be finite and nonnegative")


class Simulator:
    def __init__(self, config: SimConfig, task_set: TaskSet, assignment: Assignment):
        if assignment.cores != config.cores:
            raise ValueError("assignment core count does not match configuration")
        self.cfg = config
        self.table = config.power_table or PowerTable(config.params, derive_speeds(config.params))
        derived = self.table.derived
        self.min_scale = derived.min_scale
        if config.critical_scale_override is not None:
            self.critical_scale = config.critical_scale_override
        else:
            self.critical_scale = derived.critical_scale
        if config.t_th_ms_override is not None:
            self.t_th_ns = config.t_th_ms_override * NS_PER_MS
        else:
            self.t_th_ns = sleep_threshold(config.params, derived, config.e_sw_j) * 1e9
        self.duration_ns = round(config.duration_ms * NS_PER_MS)

        self.cores = [Core(i) for i in range(config.cores)]
        self.runs = {}
        # Every task of the set is on exactly one core, and no id is unknown.
        tasks = {task.id: task for task in task_set}
        for core, task_ids in zip(self.cores, assignment.core_tasks):
            for task_id in sorted(task_ids):
                if task_id not in tasks or task_id in self.runs:
                    raise ValueError(f"task {task_id}, listed on core {core.index}, is listed "
                                     f"twice or is not in the set")
                self.runs[task_id] = TaskRun(tasks[task_id], core.index, config.seed)
                core.members.append(self.runs[task_id])
            core.nexts = [0] * len(core.members)
            core.dyn_util = core.static_util = sum(run.full for run in core.members)
        unplaced = sorted(tasks.keys() - self.runs.keys())
        if unplaced:
            raise ValueError(f"task {unplaced[0]} is on no core")
        # Largest dynamic sum over the cores, kept by _add_dyn_util.
        self.max_util = max(core.dyn_util for core in self.cores)

        # Candidate set S of the reallocation rule: awake cores whose last
        # shift attempt failed, so they may take in another core's task.
        self.realloc_candidates: set[int] = set()
        self.speed = self.power = -1.0   # sentinels; the t=0 recompute sets both
        self.ledger = EnergyLedger(
            busy_j=[0.0] * config.cores, idle_j=[0.0] * config.cores
        )
        self.trace = [] if config.collect_trace else None
        self._heap: list = []
        # The clocks: work done at the global speed, and energy one awake
        # core draws, both since t = 0.
        self.work = self.energy = 0.0
        # Heap of (due_w, core index), one entry per running core: a dispatch
        # pushes it, a preemption or the completion takes it out.
        self._due: list = []
        self._speed_cache = (-1, 0.0)   # (max_util, the policy's speed for it)
        # Core indices an event of the current batch changed (to dispatch).
        self._touched = set()

    # -- model helpers -----------------------------------------------------

    def _add_dyn_util(self, core: Core, delta):
        """Change a core's dynamic sum, keeping ``max_util`` the largest sum:
        a rise compares against it, a drop of a core that held it rescans."""
        old = core.dyn_util
        core.dyn_util = new = old + delta
        if new > self.max_util:
            self.max_util = new
        elif new < old == self.max_util:
            self.max_util = max(c.dyn_util for c in self.cores)

    def _speed_of_sums(self):
        """Global speed the policy sets for the per-core dynamic sums.  It is
        a function of the largest sum alone, so it is re-derived only when
        that sum moved."""
        u_max, s = self._speed_cache
        if u_max != self.max_util:
            u_max = self.max_util
            s = policies.policy_speed(self.cfg.policy, u_max / UTIL_UNIT, self.min_scale,
                                      self.critical_scale)
            self._speed_cache = (u_max, s)
        return s

    def _recompute_speed(self, t_ns):
        """Set the speed and its power for the current sums."""
        u_max, s = self._speed_cache
        if u_max != self.max_util:
            s = self._speed_of_sums()
        if s != self.speed:
            self.speed = s
            self.power = self.table.power(s)
            if self.trace is not None:
                self.trace.append((t_ns, None, "speed_change", None, repr(s)))

    def _accrue(self, t0_ns, t1_ns):
        """Advance both clocks over [t0, t1] at the current speed."""
        dt = t1_ns - t0_ns
        if dt > 0:
            self.work += dt * self.speed
            self.energy += self.power * dt * 1e-9

    def _settle(self, core: Core):
        """Charge an awake core's energy since its state began to busy or
        idle, and start counting anew."""
        spent = self.energy - core.since_j
        if core.running is None:
            self.ledger.idle_j[core.index] += spent
        else:
            self.ledger.busy_j[core.index] += spent
        core.since_j = self.energy

    def _take_due(self, dt_ns, work0):
        """Pop the completions that end ``dt_ns`` after the previous batch,
        timed from the work clock ``work0`` there; returns their core indices
        in order.  The top entry is due (the caller timed it), and the entries
        that round to the same instant follow it."""
        due_heap, speed = self._due, self.speed
        found = [heapq.heappop(due_heap)[1]]
        while due_heap and int((due_heap[0][0] - work0) / speed + 0.5) == dt_ns:
            found.append(heapq.heappop(due_heap)[1])
        found.sort()
        return found

    # -- state transitions ---------------------------------------------------

    def _release(self, run: TaskRun, t_ns):
        """Release a task's next job; returns its entry for ``run`` to queue."""
        task = run.task
        ratio = draw_actual_ratio(self.cfg.cc_mean_ratio, run.cc_rng)
        job = Job(task, run.next_index, ratio * task.wcet_ns)
        if job.arrival_ns != t_ns:
            raise EngineError(f"release of task {task.id} at {t_ns} expected {job.arrival_ns}")
        run.next_index += 1
        core = self.cores[run.core]
        self._add_dyn_util(core, run.full - run.term)
        run.term = run.full
        self._touched.add(core.index)
        if self.trace is not None:
            self.trace.append((t_ns, core.index, "release", task.id, repr(job.cc_ns)))
        # This release is the core's earliest pending one: its top is t_ns.
        nxt = t_ns + task.period_ns
        heapq.heapreplace(core.nexts, nxt)
        if nxt < self.duration_ns:
            heapq.heappush(self._heap, (nxt, task.id, run))
        return (job.deadline_ns, task.id, job)

    def _complete(self, core: Core, t_ns):
        # The running job is the top: a batch queues releases after completions.
        job = core.running
        heapq.heappop(core.ready)
        self._settle(core)
        core.running = None
        run = self.runs[job.task_id]
        run.done = job.index
        # A backlogged job finishing after its successor's release leaves the
        # successor's worst case in the sum.
        if job.index == run.next_index - 1:
            term = round(job.cc_ns / run.task.period_ns * UTIL_UNIT)
            self._add_dyn_util(core, term - run.term)
            run.term = term
        if t_ns > job.deadline_ns:
            self.ledger.deadline_miss_count += 1
        self._touched.add(core.index)
        if self.trace is not None:
            self.trace.append((t_ns, core.index, "complete", job.task_id, ""))

    def _wake(self, core: Core, t_ns):
        core.state = ACTIVE
        core.since_j = self.energy
        self.ledger.wake_count += 1
        if self.trace is not None:
            self.trace.append((t_ns, core.index, "wake", None, ""))

    def _sleep(self, core: Core, t_ns):
        self._settle(core)
        core.state = SLEEPING
        # A sleeping core must not receive reallocated tasks.
        self.realloc_candidates.discard(core.index)
        if self.trace is not None:
            self.trace.append((t_ns, core.index, "sleep", None, ""))

    def _dispatch(self, core: Core, t_ns):
        """Bring a core up to date after a batch: an idle core sleeps when the
        gap to its next release reaches the threshold (else counts a failed
        sleep), a busy core runs its EDF pick, due when the work clock has
        advanced by the pick's remaining work."""
        if core.state == SLEEPING:
            return
        ready = core.ready
        if not ready:
            nxt = core.nexts[0] if core.nexts else NEVER
            if nxt - t_ns >= self.t_th_ns:
                self._sleep(core, t_ns)
            else:
                self.ledger.failed_sleep_count += 1
            return
        job = ready[0][2]
        running = core.running
        if job is running:
            return
        if running is None:
            # idle up to now (nothing when a job completed in this batch)
            self._settle(core)
        else:
            self._due.remove((core.due_w, core.index))
            heapq.heapify(self._due)
            running.remaining_ns = core.due_w - self.work
            if self.trace is not None:
                self.trace.append((t_ns, core.index, "preempt", running.task_id, ""))
        if self.trace is not None:
            self.trace.append((t_ns, core.index, "start", job.task_id, ""))
        core.running = job
        core.due_w = due_w = self.work + job.remaining_ns
        heapq.heappush(self._due, (due_w, core.index))

    # -- reallocation ----------------------------------------------------------

    def _reallocate(self, run: TaskRun, t_ns):
        """Reallocation attempt for a task whose job was just released: shift
        the task to a candidate core when that opens a sleepable idle interval
        on its home core.  The home core leaves S on a shift and joins it
        otherwise."""
        home = self.cores[run.core]
        task = run.task
        dest = None
        # An unfinished older job pins the task: jobs never migrate mid-flight,
        # so the shift is skipped for this release (counts as a failed attempt).
        # Jobs complete in index order, so such a job is queued exactly when
        # the latest completed one is older than the job before this release.
        if run.done >= run.next_index - 2:
            # The worst cases of the members whose latest job is unfinished,
            # summed in task-id order (members are kept in that order).
            load_ns = 0.0
            for member in home.members:
                if member.done < member.next_index - 1:
                    load_ns += member.task.wcet_ns
            dt = policies.compute_dt_ns(home.nexts[0] - t_ns, load_ns, self.critical_scale)
            if policies.upon_task_release(dt, task.wcet_ns, self.critical_scale, self.t_th_ns):
                cores = self.cores
                options = [
                    (cores[i].dyn_util / UTIL_UNIT, i, cores[i].static_util / UTIL_UNIT)
                    for i in self.realloc_candidates if i != home.index
                ]
                dest = policies.select_core(task.utilization, options, self.critical_scale)
        if dest is None:
            self.realloc_candidates.add(home.index)
        else:
            self.realloc_candidates.discard(home.index)
            self._commit(run, home, self.cores[dest], t_ns)

    def _commit(self, run: TaskRun, src: Core, dest: Core, t_ns):
        # The speed this instant gives without the move; other releases at
        # t_ns may already have raised it above self.speed.
        speed_before = self._speed_of_sums()
        # The task was released at t_ns (its job is queued at the end of the
        # batch), so its next release is t_ns + P.
        nxt = t_ns + run.task.period_ns
        task_id = run.task.id
        src.members.remove(run)
        dest.members.append(run)
        dest.members.sort(key=lambda r: r.task.id)
        run.core = dest.index
        src.nexts.remove(nxt)
        heapq.heapify(src.nexts)
        heapq.heappush(dest.nexts, nxt)
        self._add_dyn_util(src, -run.term)
        self._add_dyn_util(dest, run.term)
        src.static_util -= run.full
        dest.static_util += run.full
        self._touched.update((src.index, dest.index))
        self.ledger.realloc_count += 1
        if self.trace is not None:
            self.trace.append((t_ns, dest.index, "realloc", task_id, f"from={src.index}"))

        # The selection rules guarantee these; check each commit (u_static re-summed).
        u_static = left_sum(r.task.utilization for r in dest.members)
        speed_after = self._speed_of_sums()
        u_dyn = dest.dyn_util / UTIL_UNIT
        u_dyn_src = src.dyn_util / UTIL_UNIT
        if u_dyn > self.critical_scale + 1e-9:
            raise EngineError("reallocation pushed dynamic utilization past the critical scale")
        if u_static > 1.0 + 1e-9:
            raise EngineError("reallocation overloaded the destination core")
        if speed_after > speed_before + 1e-12:
            raise EngineError("reallocation raised the global speed")
        self.ledger.realloc_checks.append((u_static, u_dyn, u_dyn_src, speed_before, speed_after))

    # -- main loop -----------------------------------------------------------

    def run(self):
        duration = self.duration_ns
        heap = self._heap
        for task_id in sorted(self.runs):
            heapq.heappush(heap, (0, task_id, self.runs[task_id]))
        for core in self.cores:
            if not core.members:
                self._sleep(core, 0)
        self._recompute_speed(0)

        is_realloc = self.cfg.policy is PolicyKind.LA_REALLOC
        cores = self.cores
        touched = self._touched
        due_heap = self._due
        heappop, heappush = heapq.heappop, heapq.heappush
        t_now = 0
        while True:
            # The next completion is the top entry, timed from the latest batch
            # (a running core's due_w is never behind the work clock); the
            # sub-nanosecond residue of the rounding is dropped with the
            # completed job.
            due = (t_now + int((due_heap[0][0] - self.work) / self.speed + 0.5)
                   if due_heap else NEVER)
            t = heap[0][0] if heap and heap[0][0] < due else due
            # The horizon is the last batch; its completions count as on time.
            if t > duration:
                t = duration
            if t < t_now:
                raise EngineError(f"event at {t} after the batch at {t_now}")
            work0 = self.work
            self._accrue(t_now, t)
            dt, t_now = t - t_now, t
            released = ()
            if heap and heap[0][0] == t:
                released = []
                while heap and heap[0][0] == t:
                    run = heappop(heap)[2]
                    released.append((run, self._release(run, t)))
                if is_realloc:
                    for run, _entry in released:
                        self._reallocate(run, t)
            # Releases move no entry of the completion heap.
            if due == t:
                for i in self._take_due(dt, work0):
                    self._complete(cores[i], t)
            if t == duration:
                break
            # Released jobs join their queues after the completions, which pop
            # their running job off the top; nothing earlier in the batch reads
            # a queue below its top, so the schedule is the same.
            for run, entry in released:
                heappush(cores[run.core].ready, entry)
            # The batch's one speed, charged up to the next batch.  Wakes leave
            # the sums alone.
            self._recompute_speed(t)
            # An untouched core is asleep, idle with its sleep decision made,
            # or running its EDF pick, whatever the speed.  A sleeping core
            # gets work only from a release on it, at its next release; when
            # all of it shifted away it sleeps on at no cost.
            if len(touched) == 1:
                # Most batches touch one core: no order to keep.
                core = cores[touched.pop()]
                if core.state == SLEEPING and core.ready:
                    self._wake(core, t)
                self._dispatch(core, t)
            else:
                batch = sorted(touched)
                touched.clear()
                for i in batch:
                    core = cores[i]
                    if core.state == SLEEPING and core.ready:
                        self._wake(core, t)
                for i in batch:
                    self._dispatch(cores[i], t)

        for core in cores:
            if core.state == ACTIVE:
                self._settle(core)
        # kept as the exact product, not a running float sum
        self.ledger.switch_j = self.ledger.wake_count * self.cfg.e_sw_j
        for core in self.cores:
            for _deadline, _task_id, job in core.ready:
                if job.deadline_ns <= duration:
                    self.ledger.deadline_miss_count += 1
        return self.ledger, self.trace


def run(config: SimConfig, task_set: TaskSet, assignment: Assignment):
    """Simulate one run; returns the energy ledger and the event trace
    (None unless ``config.collect_trace``)."""
    return Simulator(config, task_set, assignment).run()


def write_trace_csv(trace, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for t_ns, core, event, task, detail in trace:
            writer.writerow([
                t_ns,
                "" if core is None else core,
                event,
                "" if task is None else task,
                detail,
            ])
