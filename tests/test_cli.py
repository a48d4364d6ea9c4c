import os
import re

import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide.cli import _COMMANDS, build_parser, main


def run(args):
    return main(list(args))


@pytest.fixture()
def inst_file(tmp_path, inst5):
    path = tmp_path / "inst.txt"
    hd.save(inst5, path)
    return str(path)


def test_generate_then_validate(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["generate", "--seed", "1", "--out-dir", out]) == 0
    inst = os.path.join(out, "instance.txt")
    assert os.path.exists(inst)
    assert os.path.exists(os.path.join(out, "generate.manifest"))
    assert run(["validate", inst, "--out-dir", out]) == 0
    captured = capsys.readouterr()
    assert "all assumptions hold" in captured.out
    # the stored file is the frozen baseline instance
    g = hd.load(inst)
    base = hd.random_instance(5, 0.8, 0.2, 1.0, 1)
    assert np.array_equal(g.a2, base.a2)


def test_generate_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["generate", "--n", "1", "--out-dir", str(tmp_path)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["generate", "--p2", "0", "--out-dir", str(tmp_path)])
    assert err.value.code == 2


def test_manifest_contents(tmp_path):
    out = str(tmp_path)
    run(["generate", "--seed", "3", "--alpha", "0.5", "--out-dir", out])
    text = open(os.path.join(out, "generate.manifest")).read()
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    entries = dict(ln.split("=", 1) for ln in lines)
    assert entries["command"] == "generate"
    assert entries["seed"] == "3"
    assert entries["alpha"] == "0.5"
    assert entries["n"] == "5"


def test_validate_reports_failures(tmp_path, inst5, capsys):
    text = hd.to_text(inst5)
    lines = text.splitlines()
    parts = lines[2].split()
    parts[1] = "-1.0"  # a negative pairwise weight, asymmetric to boot
    lines[2] = " ".join(parts)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = run(["validate", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out


def test_validate_parse_error_has_line_number(tmp_path, capsys):
    bad = tmp_path / "broken.txt"
    bad.write_text("n=5 alpha=1\n[A2]\n0 1 zz 0 0\n")
    rc = run(["validate", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "line 3" in captured.err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_validate_refuses_a_non_finite_header_alpha(tmp_path, inst5, alpha, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(hd.to_text(inst5).replace("alpha=1", f"alpha={alpha}", 1))
    out = tmp_path / "out"
    assert run(["validate", str(bad), "--out-dir", str(out)]) == 1
    assert "line 1" in capsys.readouterr().err
    assert not (out / "validate.manifest").exists()


@pytest.mark.parametrize("alpha, message", [
    ("0.5", "header alpha disagrees with the stored matrices"),
    ("none", "header says alpha=none but the slices share a common ratio"),
], ids=["ratio", "none"])
def test_validate_names_the_header_line_of_a_ratio_mismatch(tmp_path, inst5, alpha, message,
                                                            capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("\n\n" + hd.to_text(inst5).replace("alpha=1", f"alpha={alpha}", 1))
    out = tmp_path / "out"
    assert run(["validate", str(bad), "--out-dir", str(out)]) == 1
    assert f"line 3: {message}" in capsys.readouterr().err
    assert not (out / "validate.manifest").exists()


def test_validate_names_a_degree_past_the_float_range(tmp_path, capsys):
    # every weight is finite, but agent 0's degree, 2 + 2 * 1.5e308, is not
    a2, b = np.ones((3, 3)) - np.eye(3), np.zeros((3, 3, 3))
    b[0, 1, 2] = b[0, 2, 1] = 1.5e308
    rows = [" ".join("%.17g" % w for w in row) for row in [*a2, *b.reshape(9, 3)]]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(["n=3 alpha=none", "[A2]", *rows[:3], "[B1]", *rows[3:6],
                              "[B2]", *rows[6:9], "[B3]", *rows[9:]]) + "\n")
    assert run(["validate", str(bad), "--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL finite degrees: agent 0" in out and "ok   positive degrees" in out


def test_validate_missing_file(tmp_path):
    rc = run(["validate", str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)])
    assert rc == 1


def test_thresholds_output(inst_file, tmp_path, capsys):
    assert run(["thresholds", inst_file, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    entries = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert float(entries["pi1"]) == pytest.approx(2.0, abs=1e-10)
    assert float(entries["pi2"]) == pytest.approx(5.786841474543279, abs=1e-9)
    assert float(entries["pi_tilde1"]) == pytest.approx(0.9778580567937494, abs=1e-9)
    assert float(entries["pi1_star"]) == pytest.approx(1.4436264328094527, abs=1e-9)


def test_thresholds_without_shared_ratio(tmp_path, mixed_ratio, capsys):
    path = tmp_path / "mixed.txt"
    hd.save(mixed_ratio, path)
    assert run(["thresholds", str(path), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pi1_star" not in out
    assert "pi1=" in out


def test_simulate_requires_pi(inst_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["simulate", inst_file, "--out-dir", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("command, args, config", [
    ("sweep", ["--pi-step", "1e-9"], None),
    ("simulate", ["--pi", "1", "--x0", "list:1,2"], None),
    ("simulate", [], None),
    ("equilibria", [], "pi 1.7\n"),
], ids=["grid", "x0", "missing-pi", "config-line"])
def test_usage_errors_show_the_command_usage(inst_file, tmp_path, capsys, command, args,
                                             config):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    with pytest.raises(SystemExit) as err:
        run([command, inst_file, *args, "--out-dir", str(tmp_path)])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: hyperdecide {command} ")


def test_simulate_writes_trajectory(inst_file, tmp_path, capsys):
    rc = run(["simulate", inst_file, "--pi", "1.7", "--x0", "consensus:0.05",
              "--out-dir", str(tmp_path)])
    assert rc == 0
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.abs(data[-1, 1:]).max() < 1e-4  # settled at the deadlock
    assert "converged=True" in capsys.readouterr().out


def test_simulate_x0_specs(inst_file, tmp_path):
    assert run(["simulate", inst_file, "--pi", "1.7", "--x0", "zeros",
                "--out-dir", str(tmp_path)]) == 0
    assert run(["simulate", inst_file, "--pi", "1.7", "--x0", "random:3:0.5",
                "--out-dir", str(tmp_path)]) == 0
    assert run(["simulate", inst_file, "--pi", "1.7",
                "--x0", "list:0.1,0.2,0.3,0.2,0.1",
                "--out-dir", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as err:
        run(["simulate", inst_file, "--pi", "1.7", "--x0", "list:1,2",
             "--out-dir", str(tmp_path)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["simulate", inst_file, "--pi", "1.7", "--x0", "banana",
             "--out-dir", str(tmp_path)])
    assert err.value.code == 2


# RK4 with dt = 2 blows up at pi = 1.7: the state passes 1e6 by t = 10
BLOWUP = ["--pi", "1.7", "--x0", "consensus:1", "--dt", "2", "--t-max", "10"]


def test_simulate_divergence_exit_code(inst_file, tmp_path):
    rc = run(["simulate", inst_file, *BLOWUP, "--out-dir", str(tmp_path)])
    assert rc == 1


def test_simulate_refuses_a_step_count_of_zero(inst_file, tmp_path, capsys):
    # t_max / dt = 1 / 3 rounds to no step: a runtime failure with exit 1,
    # as the step cap, and neither a trajectory nor a manifest
    out = tmp_path / "out"
    assert run(["simulate", inst_file, "--pi", "1.7", "--dt", "3", "--t-max", "1",
                "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "gives no step; at least 1 is needed" in err and "Traceback" not in err
    assert not any(out.glob("*"))


def test_simulate_from_a_start_above_the_guard_floor(inst_file, tmp_path):
    assert run(["simulate", inst_file, "--pi", "1", "--x0", "consensus:2e6",
                "--out-dir", str(tmp_path)]) == 0
    states = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:]
    assert np.abs(states).max() <= 2e6


def test_failed_run_leaves_no_manifest(inst_file, tmp_path):
    assert run(["simulate", inst_file, *BLOWUP, "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "simulate.manifest").exists()
    # the same command that succeeds writes it
    assert run(["simulate", inst_file, "--pi", "1.7", "--t-max", "1",
                "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "simulate.manifest").exists()


def test_usage_error_inside_a_handler_leaves_no_manifest(inst_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["simulate", inst_file, "--pi", "1.7", "--x0", "list:1,2",
             "--out-dir", str(tmp_path)])
    assert err.value.code == 2
    assert not (tmp_path / "simulate.manifest").exists()


@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_sweep_workers_is_an_unknown_option(given_as, inst_file, tmp_path, capsys):
    if given_as == "flag":
        flags = ["--workers", "2"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers=2\n")
        flags = ["--config", str(cfg)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run(["sweep", inst_file, *SMALL_GRID, *flags, "--out-dir", str(out)])
    assert err.value.code == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()  # no output and no manifest


def test_equilibria_command(inst_file, tmp_path, capsys):
    rc = run(["equilibria", inst_file, "--pi", "1.7", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "count=3" in capsys.readouterr().out
    lines = (tmp_path / "equilibria.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_sweep_command_with_svg(inst_file, tmp_path, capsys):
    rc = run(["sweep", inst_file, "--pi-min", "1.6", "--pi-max", "1.8",
              "--pi-step", "0.1", "--svg", "d.svg", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "branches=3" in out
    assert "bistability=" in out
    assert (tmp_path / "diagram.csv").exists()
    assert (tmp_path / "d.svg").read_text().startswith("<svg")


def test_sweep_empty_grid_is_usage_error(inst_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["sweep", inst_file, "--pi-min", "2.0", "--pi-max", "1.0",
             "--out-dir", str(tmp_path)])
    assert err.value.code == 2


def test_sweep_reruns_byte_identical(inst_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run(["sweep", inst_file, "--pi-min", "1.6", "--pi-max", "1.8",
                  "--pi-step", "0.1", "--out-dir", str(out)])
        assert rc == 0
    assert (a / "diagram.csv").read_bytes() == (b / "diagram.csv").read_bytes()
    assert (a / "sweep.manifest").read_text().replace(str(a), "X") == \
        (b / "sweep.manifest").read_text().replace(str(b), "X")


@pytest.mark.parametrize("args", [
    ["equilibria", "--pi", "inf"],
    ["simulate", "--pi", "nan"],
    ["simulate", "--pi", "1.7", "--t-max", "inf"],
    ["simulate", "--pi", "1.7", "--dt", "nan"],
    ["sweep", "--pi-step", "nan"],
    ["simulate", "--config", "pi=inf"],
    ["simulate", "--pi", "1.7", "--x0", "list:nan,0,0,0,0"],
    ["simulate", "--pi", "1.7", "--x0", "consensus:inf"],
    ["simulate", "--pi", "1.7", "--x0", "random:3:inf"],
    ["simulate", "--pi", "1", "--x0", "consensus:1e308"],  # its guard 10 |x0|_inf overflows
])
def test_non_finite_floats_are_usage_errors(args, inst_file, tmp_path, capsys):
    command, *flags = args
    if "--config" in flags:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(flags[-1] + "\n")
        flags[-1] = str(cfg)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run([command, inst_file, *flags, "--out-dir", str(out)])
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / f"{command}.manifest").exists()


SMALL_GRID = ["--pi-min", "1", "--pi-max", "1.1", "--pi-step", "0.1"]


@pytest.mark.parametrize("command, flags, key, value", [
    ("simulate", ["--pi", "1.7"], "dt", "0"),
    ("simulate", ["--pi", "1.7"], "t_max", "-1"),
    ("simulate", [], "pi", "0"),
    ("equilibria", [], "pi", "0"),
    ("generate", [], "seed", "-1"),
    ("sweep", [], "pi_min", "0"),
    ("sweep", SMALL_GRID + ["--svg", "d.svg"], "svg_coord", "-1"),
    ("sweep", SMALL_GRID + ["--svg", "d.svg"], "svg_coord", "5"),  # inst5 has 5 agents
    ("generate", [], "n", "3000"),  # a 201 GiB triple tensor
    ("sweep", [], "pi_step", "1e-9"),  # 4 995 000 001 effort levels
    ("equilibria", [], "pi", "9e307"),  # 2 (pi + 1), the seed box width, overflows
    ("simulate", [], "pi", "9e307"),
    ("equilibria", [], "pi", "8e307"),  # 10 pi, the Newton blow-up guard, overflows
    ("sweep", ["--pi-min", "8e307", "--pi-step", "1e307"], "pi_max", "9e307"),
])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_out_of_range_values_are_usage_errors(command, flags, key, value, given_as,
                                              inst_file, tmp_path, capsys):
    if given_as == "flag":
        flags = [*flags, "--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        flags = [*flags, "--config", str(cfg)]
    file = [] if command == "generate" else [inst_file]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run([command, *file, *flags, "--out-dir", str(out)])
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not any(out.glob("*"))  # no output and no manifest


@pytest.mark.parametrize("args, code", [
    (["sweep", "--pi-step", "1e-320"], 2),
    (["simulate", "--pi", "1.7", "--t-max", "1e300", "--dt", "1e-300"], 1),
    (["simulate", "--pi", "1.7", "--x0", "consensus:1", "--dt", "1e-9"], 1),  # 2e11 steps
])
def test_step_counts_that_overflow(args, code, inst_file, tmp_path, capsys):
    command, *flags = args
    out = tmp_path / "out"
    try:
        rc = run([command, inst_file, *flags, "--out-dir", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err
    assert not (out / f"{command}.manifest").exists()


def test_config_file_supplies_defaults(inst_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pi=1.7\nout=from_cfg.csv\n# comment line\n")
    rc = run(["equilibria", inst_file, "--config", str(cfg),
              "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "from_cfg.csv").exists()


def test_flags_beat_config(inst_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pi=1.7\n")
    rc = run(["equilibria", inst_file, "--config", str(cfg), "--pi", "2.5",
              "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = (tmp_path / "equilibria.manifest").read_text()
    assert "pi=2.5" in manifest


def test_config_rejects_unknown_key(inst_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume=11\n")
    with pytest.raises(SystemExit) as err:
        run(["equilibria", inst_file, "--config", str(cfg),
             "--out-dir", str(tmp_path)])
    assert err.value.code == 2


def test_normal_form_command(inst_file, tmp_path, capsys):
    assert run(["normal-form", inst_file, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    entries = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert float(entries["kappa1"]) < 0
    assert float(entries["kappa2"]) > 0


def test_output_dir_from_environment(inst_file, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("HYPERDECIDE_OUT", str(target))
    rc = run(["equilibria", inst_file, "--pi", "1.7"])
    assert rc == 0
    assert (target / "equilibria.csv").exists()
    assert (target / "equilibria.manifest").exists()


def test_readme_command_line_flags_exist():
    # every flag the README's "## Command line" section names is a flag of
    # some subcommand, so option docs cannot outlive the option
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    flags = set()
    for name, command in _COMMANDS.items():
        sub = parser.parse_args([name] + (["file"] if command.file else [])).command_parser
        flags.update(sub._option_string_actions)
    documented = set(re.findall(r"--[a-z0-9-]+", section))
    assert documented and documented <= flags, documented - flags
