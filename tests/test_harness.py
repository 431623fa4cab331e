import ast
import dataclasses
import functools
import math

import pytest

from coresleep import harness
from coresleep.harness import (
    POLICY_ORDER,
    SweepError,
    SweepResult,
    SweepSpec,
    emit,
    run_single,
    run_sweep,
)
from coresleep.policies import PolicyKind
from coresleep.workload import WorkloadError


def tiny_spec(**overrides):
    base = dict(
        axis="U",
        values=(0.2, 0.4),
        m=2,
        e_sw_j=5e-4,
        cc_ratio=0.5,
        n_range=(3, 5),
        duration_ms=400.0,
        repetitions=3,
        base_seed=11,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_bad_axis(self):
        with pytest.raises(SweepError):
            tiny_spec(axis="frequency")

    def test_values_must_increase(self):
        with pytest.raises(SweepError):
            tiny_spec(values=(0.4, 0.2))
        with pytest.raises(SweepError):
            tiny_spec(values=())

    def test_axis_ranges(self):
        with pytest.raises(WorkloadError):
            tiny_spec(values=(0.5, 1.5))  # U beyond 1
        with pytest.raises(WorkloadError):
            tiny_spec(axis="E_sw", values=(-1e-3, 0.0))
        with pytest.raises(WorkloadError):
            tiny_spec(axis="m", values=(1.5, 2.0))
        with pytest.raises(WorkloadError):
            tiny_spec(axis="cc_ratio", values=(0.0, 0.5))

    @pytest.mark.parametrize("fixed", [
        dict(m=0), dict(u=0.0), dict(u=1.5), dict(e_sw_j=-1e-3), dict(cc_ratio=0.0),
        dict(axis="m", values=(2, 4), u=0.0),
    ])
    def test_fixed_parameter_ranges(self, fixed):
        with pytest.raises(WorkloadError):
            tiny_spec(**fixed)

    @pytest.mark.parametrize("periods", [(100.0, 10.0), (0.0, 10.0), (-5.0, 10.0), (1e-7, 1e-7)])
    def test_period_range(self, periods):
        with pytest.raises(WorkloadError, match="period range"):
            tiny_spec(period_range_ms=periods)

    @pytest.mark.parametrize("tasks", [(0, 5), (5, 3), (0, 0), (25, 30), (10, 21),
                                       (10.0, 12), (10, 12.0)])
    def test_task_range(self, tasks):
        with pytest.raises(WorkloadError, match="task range"):
            tiny_spec(n_range=tasks)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_duration(self, duration):
        with pytest.raises(WorkloadError):
            tiny_spec(duration_ms=duration)

    @pytest.mark.parametrize("repetitions", [2.5, 2.0])
    def test_repetitions_must_be_an_integer(self, repetitions):
        with pytest.raises(SweepError, match="repetition"):
            tiny_spec(repetitions=repetitions)

    def test_partition_retries_are_a_constant(self):
        assert "max_partition_retries" not in {f.name for f in dataclasses.fields(SweepSpec)}
        assert tiny_spec().max_partition_retries == 50
        with pytest.raises(TypeError):
            tiny_spec(max_partition_retries=5)

    def test_fixed_for_applies_axis(self):
        spec = tiny_spec(axis="E_sw", values=(1e-4, 2e-4))
        u, e_sw, m, cc = spec.fixed_for(2e-4)
        assert (u, e_sw, m, cc) == (spec.u, 2e-4, spec.m, spec.cc_ratio)
        spec = tiny_spec(axis="m", values=(2, 4))
        assert spec.fixed_for(4)[2] == 4


@pytest.fixture(scope="module")
def result(params):
    return run_sweep(tiny_spec(), params=params)


class TestRunSweep:
    def test_row_layout(self, result):
        assert len(result.rows) == 2 * 3
        for value in (0.2, 0.4):
            policies = [r.policy for r in result.rows if r.value == value]
            assert policies == [p.value for p in POLICY_ORDER]

    def test_reference_policy_normalizes_to_one(self, result):
        for value in (0.2, 0.4):
            assert result.row(value, PolicyKind.LA_DVS).normalized == 1.0

    def test_row_of_a_value_not_swept_raises(self, result):
        with pytest.raises(KeyError):
            result.row(0.3, PolicyKind.LA_DVS)

    def test_all_repetitions_ran(self, result):
        assert all(r.runs == 3 for r in result.rows)
        assert result.skipped == {0.2: 0, 0.4: 0}

    def test_worker_count_does_not_change_output(self, params, tmp_path):
        res1 = run_sweep(tiny_spec(), params=params, workers=1)
        res2 = run_sweep(tiny_spec(), params=params, workers=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(res1, p1)
        emit(res2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_repeat_is_byte_identical(self, params, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_sweep(tiny_spec(), params=params), p1)
        emit(run_sweep(tiny_spec(), params=params), p2)
        assert p1.read_bytes() == p2.read_bytes()


class RecordingPool:
    """Stand-in for ``multiprocessing.Pool`` that records the process count
    it is asked for and runs ``map`` in this process, so no process starts."""

    def __init__(self, sizes, processes, initializer, initargs):
        sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        harness._WORKER_CTX.clear()   # a worker's context goes with the worker

    def map(self, func, jobs, chunksize=None):
        return [func(job) for job in jobs]


@pytest.mark.parametrize("jobs, workers, pools", [(2, 8, [2]), (1, 4, [])])
def test_no_more_processes_than_jobs(monkeypatch, params, jobs, workers, pools):
    """A sweep starts ``min(workers, jobs)`` processes, and none when that
    is 1; the rows are those of a one-worker sweep either way, and that
    sweep leaves no worker context behind."""
    spec = tiny_spec(values=(0.2,), repetitions=jobs)
    expected = run_sweep(spec, params=params, workers=1).rows
    assert harness._WORKER_CTX == {}   # the one-worker sweep cleared its context
    sizes = []
    monkeypatch.setattr(harness, "Pool", functools.partial(RecordingPool, sizes))
    assert run_sweep(spec, params=params, workers=workers).rows == expected
    assert sizes == pools


@pytest.mark.parametrize("workers", [0, -2])
def test_worker_count_below_one_rejected(params, workers):
    with pytest.raises(SweepError, match="worker"):
        run_sweep(tiny_spec(), params=params, workers=workers)


@pytest.mark.parametrize("workers", [1.5, 2.0])
def test_worker_count_must_be_an_integer(params, workers):
    with pytest.raises(SweepError, match="worker"):
        run_sweep(tiny_spec(), params=params, workers=workers)


def test_run_single_rejects_bad_period_range(params):
    with pytest.raises(WorkloadError, match="period range"):
        run_single(params, PolicyKind.LA_DVS, period_range_ms=(100.0, 10.0))


@pytest.mark.parametrize("bad, match", [
    (dict(u=0.0), "U value"),
    (dict(m=0), "core count"),
    (dict(e_sw_j=-1e-3), "E_sw"),
    (dict(cc_ratio=1.5), "cc ratio"),
    (dict(n_range=(25, 30)), "task range"),
    (dict(n_range=(5, 3)), "task range"),
    (dict(duration_ms=0.0), "duration"),
    (dict(m=2.0), "core count"),
    (dict(seed=1.0), "seed"),
])
def test_run_single_checks_inputs_before_drawing(params, bad, match):
    with pytest.raises(ValueError, match=match):
        run_single(params, PolicyKind.LA_DVS, **bad)


@pytest.mark.parametrize("m", [2, 4])
def test_run_single_is_repetition_zero_of_a_one_point_sweep(params, m):
    """A sweep's repetition re-run through run_single gives its row exactly;
    the benchmark's recheck of a sweep relies on it."""
    spec = SweepSpec(axis="U", values=(0.3,), m=m, duration_ms=300.0, repetitions=1, base_seed=7)
    result = run_sweep(spec, params=params)
    for policy in POLICY_ORDER:
        _, _, ledger, _ = run_single(
            params, policy, m=m, u=0.3, e_sw_j=spec.e_sw_j, cc_ratio=spec.cc_ratio,
            n_range=spec.n_range, period_range_ms=spec.period_range_ms,
            duration_ms=spec.duration_ms, seed=7,
        )
        row = result.row(0.3, policy)
        assert row.runs == 1
        assert (row.energy_j, row.misses, row.wakes, row.failed_sleeps) == (
            ledger.total_j, ledger.deadline_miss_count, ledger.wake_count,
            ledger.failed_sleep_count)


class TestInfeasibleRepetitions:
    def test_skips_are_reported_not_dropped(self, params, tmp_path):
        # three tasks summing to utilization 2 can never split 1.0/1.0
        spec = tiny_spec(values=(1.0,), n_range=(3, 3), repetitions=2)
        result = run_sweep(spec, params=params)
        assert result.skipped == {1.0: 2}
        for row in result.rows:
            assert row.runs == 0
            assert math.isnan(row.energy_j) and math.isnan(row.normalized)
        path = tmp_path / "skipped.csv"
        emit(result, path)
        text = path.read_text()
        assert "# skipped_repetitions = 2" in text
        assert ",nan," in text


class TestEmit:
    def test_csv_shape_and_provenance(self, params, tmp_path):
        result = run_sweep(tiny_spec(), params=params)
        path = tmp_path / "out.csv"
        emit(result, path)
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("base_seed = 11" in c for c in comments)
        assert any("duration_ms" in c for c in comments)
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "axis,value,policy,energy_j,normalized,misses,wakes,failed_sleeps,runs"
        assert len(lines) - header_idx - 1 == len(result.rows)

    def test_provenance_header_text(self, params, tmp_path):
        path = tmp_path / "out.csv"
        emit(run_sweep(tiny_spec(), params=params), path)
        comments = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        assert comments == [
            "# coresleep sweep result",
            "# axis = U",
            "# values = 0.2,0.4",
            "# u = 0.3",
            "# e_sw_j = 0.0005",
            "# m = 2",
            "# cc_ratio = 0.5",
            "# n_range = 3:5",
            "# period_range_ms = 10.0:100.0",
            "# duration_ms = 400.0",
            "# repetitions = 3",
            "# base_seed = 11",
            "# skipped_repetitions = 0",
        ]

    def test_plot_script_compiles(self, params, tmp_path):
        result = run_sweep(tiny_spec(), params=params)
        path = tmp_path / "out.csv"
        emit(result, path)
        script = tmp_path / "out_plot.py"
        assert script.exists()
        compile(script.read_text(), str(script), "exec")

    @pytest.mark.parametrize("name, stem", [
        ("out.csv", "out"),
        ("run.v2/results", "run.v2/results"),
        ("run.v2/results.txt", "run.v2/results"),
    ])
    def test_plot_script_and_png_sit_next_to_the_csv(self, tmp_path, name, stem):
        (tmp_path / "run.v2").mkdir()
        emit(SweepResult(spec=tiny_spec(), rows=[]), tmp_path / name)
        script = (tmp_path / f"{stem}_plot.py").read_text()
        png = str(tmp_path / f"{stem}.png")
        assert f"plt.savefig({png!r}, dpi=150)" in script

    def test_plot_script_names_every_policy(self, tmp_path):
        emit(SweepResult(spec=tiny_spec(), rows=[]), tmp_path / "out.csv")
        script = (tmp_path / "out_plot.py").read_text()
        loop = next(line for line in script.splitlines() if line.startswith("for policy in "))
        assert loop == 'for policy in ("pure_dvs", "la_dvs", "la_realloc"):'
        named = ast.literal_eval(loop.removeprefix("for policy in ").removesuffix(":"))
        assert set(named) == {kind.value for kind in PolicyKind}

    def test_header_only_for_empty_rows(self, tmp_path):
        result = SweepResult(spec=tiny_spec(), rows=[])
        path = tmp_path / "empty.csv"
        emit(result, path)
        data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert data == ["axis,value,policy,energy_j,normalized,misses,wakes,failed_sleeps,runs"]


class TestNormalize:
    """The reduce divides each policy's mean energy by the la_dvs mean at the
    same axis value; repetitions are stubbed with fixed energies."""

    @staticmethod
    def sweep(monkeypatch, params, energies):
        def repetition(job):
            _vi, rep = job
            return {p.value: (e * (rep + 1), 0, 0, 0) for p, e in zip(POLICY_ORDER, energies)}
        monkeypatch.setattr(harness, "_run_repetition", repetition)
        spec = SweepSpec(axis="U", values=(0.2,), repetitions=2)
        return run_sweep(spec, params=params, workers=1)

    def test_zero_reference_energy_rejected(self, monkeypatch, params):
        with pytest.raises(SweepError, match="zero energy at 0.2"):
            self.sweep(monkeypatch, params, (1.0, 0.0, 1.0))

    def test_ratio(self, monkeypatch, params):
        result = self.sweep(monkeypatch, params, (1.0, 2.0, 3.0))
        assert [r.energy_j for r in result.rows] == [1.5, 3.0, 4.5]
        assert [r.normalized for r in result.rows] == [0.5, 1.0, 1.5]


def test_run_single_returns_trace(params):
    task_set, assignment, ledger, trace = run_single(
        params, PolicyKind.LA_REALLOC, m=2, u=0.3, duration_ms=200.0,
        n_range=(3, 5), seed=5, collect_trace=True,
    )
    assert len(task_set) in (3, 4, 5)
    assert assignment.cores == 2
    assert ledger.total_j > 0
    assert trace and trace[0][2] in ("speed_change", "release", "sleep")
