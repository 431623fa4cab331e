import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import coresleep
from coresleep.cli import MAX_GRID_POINTS, _sweep_axis, main


def test_simulate_prints_summary(capsys):
    code = main([
        "simulate", "--policy", "la_realloc", "--cores", "2", "--util", "0.3",
        "--tasks", "3:5", "--duration", "200", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy_j=" in out
    assert "wakes=" in out


def test_simulate_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main([
        "simulate", "--tasks", "3:5", "--duration", "200", "--seed", "5",
        "--trace", str(trace),
    ])
    capsys.readouterr()
    assert code == 0
    assert trace.read_text().splitlines()[0] == "time_ns,core,event,task,detail"


@pytest.mark.parametrize("command, runner, flag", [
    ("sweep", "run_sweep", "--out"),
    ("simulate", "run_single", "--trace"),
])
def test_missing_output_directory_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                        command, runner, flag):
    def never(*args, **kwargs):
        raise AssertionError(f"{runner} called despite a missing output directory")

    monkeypatch.setattr(f"coresleep.cli.{runner}", never)
    args = [command, flag, str(tmp_path / "missing" / "x.csv")]
    if command == "sweep":
        args += ["--sweep", "U=0.2:0.4:0.2"]
    assert main(args) == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("command, runner, flag", [
    ("sweep", "run_sweep", "--out"),
    ("simulate", "run_single", "--trace"),
])
def test_directory_as_output_path_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                       command, runner, flag):
    def never(*args, **kwargs):
        raise AssertionError(f"{runner} called despite a directory as output path")

    monkeypatch.setattr(f"coresleep.cli.{runner}", never)
    args = [command, flag, str(tmp_path)]
    if command == "sweep":
        args += ["--sweep", "U=0.2:0.4:0.2"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is a directory" in err


def test_sweep_writes_csv_and_is_reproducible(tmp_path, capsys):
    args = [
        "sweep", "--sweep", "U=0.2:0.4:0.2", "--runs", "2", "--duration", "300",
        "--tasks", "3:5", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0].startswith("axis,value,policy")
    assert len(lines) == 1 + 2 * 3  # header + 2 values x 3 policies


def test_sweep_m_axis_grid(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main([
        "sweep", "--sweep", "m=2:4:2", "--runs", "1", "--duration", "200",
        "--tasks", "3:5", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert "m,2," in out.read_text()


def test_sweep_bare_axis_uses_canonical_grid(tmp_path, capsys):
    from coresleep.harness import DEFAULT_GRIDS

    out = tmp_path / "m_default.csv"
    code = main([
        "sweep", "--sweep", "m", "--runs", "1", "--duration", "200",
        "--util", "0.2", "--tasks", "4:6", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    values = sorted({int(ln.split(",")[1]) for ln in data[1:]})
    assert tuple(values) == DEFAULT_GRIDS["m"]


def test_explicit_constants_file(capsys):
    ref = resources.files("coresleep").joinpath("data/cmos70nm.conf")
    with resources.as_file(ref) as path:
        code = main([
            "simulate", "--constants", str(path), "--tasks", "3:4",
            "--duration", "100", "--seed", "2",
        ])
    capsys.readouterr()
    assert code == 0


def test_missing_constants_file_fails(capsys):
    code = main(["simulate", "--constants", "/nonexistent.conf"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_bad_axis_fails(tmp_path, capsys):
    code = main([
        "sweep", "--sweep", "frequency=1:2:1", "--runs", "1",
        "--out", str(tmp_path / "x.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("args", [
    ["sweep", "--sweep", "U=0.1:0.2:0.1", "--cores", "0"],
    ["sweep", "--sweep", "m=2:4:2", "--util", "0"],
    ["sweep", "--sweep", "U=0.3:0.3:0.1", "--esw", "nan"],
    ["sweep", "--sweep", "U=0.3:0.3:0.1", "--duration", "inf"],
    ["sweep", "--sweep", "E_sw=0.0:0.0:0.1", "--periods", "10:inf"],
    ["simulate", "--esw", "nan"],
    ["simulate", "--esw", "inf"],
    ["simulate", "--duration", "inf"],
    ["simulate", "--periods", "10:inf"],
    ["simulate", "--duration", "1e-7"],
])
def test_bad_fixed_parameter_fails(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    if args[0] == "sweep":
        code = main([*args, "--runs", "1", "--out", str(out)])
    else:
        code = main([*args, "--trace", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("constant", ["c_eff = nan", "k3 = inf"])
def test_non_finite_constant_fails(tmp_path, capsys, constant):
    name = constant.split()[0]
    ref = resources.files("coresleep").joinpath("data/cmos70nm.conf")
    lines = ref.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "bad.conf"
    path.write_text("\n".join(constant if ln.startswith(name + " ") else ln for ln in lines))
    code = main(["simulate", "--constants", str(path), "--duration", "100"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"error: {name} must be finite\n" and out == ""


@pytest.mark.parametrize("grid", ["U=0.1:inf:0.1", "m=2:inf:2", "U=0.1:0.5:nan"])
def test_non_finite_grid_rejected(tmp_path, capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--sweep", grid, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "need finite values" in capsys.readouterr().err


@pytest.mark.parametrize("args, word", [
    (["--workers", "0"], "worker"),
    (["--workers", "-1"], "worker"),
    (["--periods", "100:10"], "period range"),
    (["--duration", "0"], "duration"),
    (["--duration", "1e-7"], "rounds below 1 ns"),
    (["--runs", "0"], "need at least one repetition"),
    (["--periods", "1e-7:1e-7"], "period range 1e-07:1e-07"),
])
def test_bad_sweep_input_fails(tmp_path, capsys, args, word):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--sweep", "U=0.1:0.2:0.1", "--runs", "1", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and word in err
    assert not out.exists()


@pytest.mark.parametrize("periods, shown", [
    pytest.param("100:10", "100.0:10.0", id="max-below-min"),
    # MIN and MAX of 0.1 ns: every drawn period rounds to 0 ns
    pytest.param("1e-7:1e-7", "1e-07:1e-07", id="sub-ns"),
])
def test_simulate_rejects_bad_period_range(capsys, periods, shown):
    code = main(["simulate", "--periods", periods, "--duration", "100"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: period range {shown}")


@pytest.mark.parametrize("args, message", [
    (["--util", "0"], "error: U value 0.0 outside"),
    (["--cores", "0"], "error: core count 0 "),
    (["--tasks", "25:30"], "error: task range 25:30 "),
    (["--tasks", "0:0"], "error: task range 0:0 "),
    (["--tasks", "5:3"], "error: task range 5:3 "),
])
def test_simulate_names_bad_input(capsys, args, message):
    code = main(["simulate", *args, "--duration", "100"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message)


def test_simulate_without_a_feasible_partition_fails(capsys):
    # U = 1.0 on two cores with one task: the task alone needs more than a core
    code = main(["simulate", "--cores", "2", "--util", "1.0", "--tasks", "1:1",
                 "--duration", "100"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "error: no feasible partition for seed 1 after resampling\n" and out == ""


def test_sweep_rejects_task_range_beyond_generator(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--sweep", "U=0.1:0.2:0.1", "--tasks", "25:30", "--runs", "1",
                 "--duration", "100", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: task range 25:30 ")
    assert not out.exists()


def test_sweep_warns_on_fully_skipped_value(tmp_path, capsys):
    # U = 1.0 on two cores: no drawn task set admits a partition
    out = tmp_path / "u.csv"
    code = main([
        "sweep", "--sweep", "U=0.9:1.0:0.1", "--runs", "1", "--duration", "100",
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 0
    assert err.splitlines() == [
        "warning: U=1.0: all 1 repetitions skipped (no feasible partition); its rows are NaN"
    ]
    assert "# skipped_repetitions = 1" in out.read_text()


def test_bad_grid_syntax_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--sweep", "U=0.1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code != 0


def sweep_grid_capped(grid, out):
    """Run ``coresleep sweep --sweep GRID --out OUT`` in a child capped at
    400 MB of address space and 60 s, so that a grid that grows without end
    fails there, not on the host; returns (exit status, stderr lines)."""
    limited_main = ("import resource, sys\n"
                    "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
                    "from coresleep.cli import main\n"
                    "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", limited_main, "sweep", "--sweep", grid, "--out", str(out)],
        env={"PYTHONPATH": str(Path(coresleep.__file__).parent.parent)},
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr.splitlines()


def test_grid_step_that_cannot_advance_fails_at_once(tmp_path):
    """0.001 + 1e-20 rounds back to 0.001, so the grid would never reach
    STOP."""
    out = tmp_path / "x.csv"
    status, lines = sweep_grid_capped("E_sw=0.001:0.002:1e-20", out)
    assert status == 2, lines[-3:]
    assert lines[0].startswith("usage: coresleep sweep")
    assert lines[-1] == ("coresleep sweep: error: argument --sweep: STEP 1e-20 does not "
                         "advance the value 0.001")
    assert not out.exists()


def test_grid_with_too_many_points_fails_before_it_is_built(tmp_path):
    """Each step of 1e-20 advances the value for a while, but the grid would
    hold about 1e17 points; it is rejected before a single one is built."""
    out = tmp_path / "x.csv"
    status, lines = sweep_grid_capped("E_sw=0:0.001:1e-20", out)
    assert status == 2, lines[-3:]
    assert lines[0].startswith("usage: coresleep sweep")
    assert lines[-1] == (f"coresleep sweep: error: argument --sweep: grid '0:0.001:1e-20' "
                         f"has more than {MAX_GRID_POINTS:,} points")
    assert not out.exists()


def test_grid_bound_admits_its_largest_grid():
    _axis, values = _sweep_axis("U=0.0001:1:0.0001")
    assert len(values) == MAX_GRID_POINTS and values[-1] == 1.0
