from importlib import resources

import pytest

from coresleep.cli import main


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
])
def test_bad_sweep_input_fails(tmp_path, capsys, args, word):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--sweep", "U=0.1:0.2:0.1", "--runs", "1", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and word in err
    assert not out.exists()


def test_simulate_rejects_bad_period_range(capsys):
    code = main(["simulate", "--periods", "100:10", "--duration", "100"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: period range 100.0:10.0")


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
