import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardyhenon4.cli import _OPTIONS, COMMANDS, main, parse_invocation
from hardyhenon4.green import RadialField, bilaplacian_solve_radial, make_grid


def test_parse_keeps_only_explicit_flags():
    inv = parse_invocation(["coeffs", "--n", "6", "--alpha", "0", "--p", "4"])
    assert inv.command == "coeffs"
    assert inv.flags == {"n": 6, "alpha": 0.0, "p": 4.0}
    assert inv.config_path is None

    inv = parse_invocation(["classify", "--config", "c.ini", "--quiet"])
    assert inv.config_path == "c.ini"
    assert inv.flags == {"quiet": True}


def test_negative_values_in_exponent_form_parse_like_equals_form(capsys):
    inv = parse_invocation(["simulate", "--t-end", "-1.2e1", "--alpha", "-.5E+0"])
    assert inv.flags == {"t_end": -12.0, "alpha": -0.5}
    outs = []
    for alpha in (["--alpha", "-1e-1"], ["--alpha=-1e-1"], ["--alpha", "-inf"], ["--alpha=-inf"]):
        code = main(["coeffs", "--n", "6", *alpha, "--p", "4", "--format", "csv"])
        outs.append((code, *capsys.readouterr()))
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert outs[2] == outs[3] and outs[2][0] == 1
    assert "need alpha > -4.0, got alpha=-inf" in outs[2][2]


def test_unknown_command_and_flag_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectralize"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--banana", "1"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_coeffs_csv_output(capsys):
    assert main(["coeffs", "--n", "6", "--alpha", "0", "--p", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# result-table kind=atlas")
    assert "7.901234567901236" in out
    assert "Subcritical" in out


def test_coeffs_missing_parameters(capsys):
    assert main(["coeffs", "--n", "6"]) == 1
    err = capsys.readouterr().err
    assert "--alpha" in err and "--p" in err


def test_format_flag_forces_rendering(capsys):
    assert main(["coeffs", "--n", "6", "--alpha", "0", "--p", "4",
                 "--format", "aligned"]) == 0
    aligned = capsys.readouterr().out
    data_lines = [ln for ln in aligned.splitlines() if not ln.startswith("#")]
    assert data_lines[0].startswith("n ")
    assert "," not in data_lines[1]


def test_simulate_outside_window_is_usage_error(capsys):
    assert main(["simulate", "--n", "6", "--alpha", "0", "--p", "9"]) == 1
    err = capsys.readouterr().err
    assert "(3, 5)" in err


def test_simulate_requires_negative_horizon(capsys):
    assert main(["simulate", "--n", "6", "--alpha", "0", "--p", "4",
                 "--t-end", "5"]) == 1
    assert "--t-end" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "classify", "energy-audit"])
def test_infinite_horizon_is_usage_error(command, capsys, deadline):
    for t_end in ("-inf", "5"):
        with deadline(60):
            code = main([command, "--n", "6", "--alpha", "0", "--p", "4", f"--t-end={t_end}"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "--t-end must be finite and negative" in err


def test_simulate_emits_trajectory_and_diagnostic(capsys):
    assert main(["simulate", "--n", "6", "--alpha", "0", "--p", "4",
                 "--t-end", "-12"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# result-table kind=trajectory")
    assert "t,w0,w1,w2,w3,energy" in captured.out
    assert "classified" in captured.err


def test_quiet_silences_diagnostics(capsys):
    assert main(["simulate", "--n", "6", "--alpha", "0", "--p", "4",
                 "--t-end", "-12", "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_classify_out_file_is_deterministic(tmp_path, capsys):
    args = ["classify", "--n", "6", "--alpha", "0", "--p", "4",
            "--samples", "4", "--seed", "7", "--t-end", "-20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("# result-table kind=classification")
    assert ",draw," in text and ",summary," in text


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "# sweep setup\n"
        "n = 6\n"
        "alpha = 0\n"
        "p = 4\n"
        "samples = 8\n"
        "t-end = -20\n"
        "seed = 7\n"
    )
    out_cfg = tmp_path / "from-config.csv"
    assert main(["classify", "--config", str(cfg), "--samples", "4",
                 "--out", str(out_cfg)]) == 0
    out_flags = tmp_path / "from-flags.csv"
    assert main(["classify", "--n", "6", "--alpha", "0", "--p", "4",
                 "--samples", "4", "--seed", "7", "--t-end", "-20",
                 "--out", str(out_flags)]) == 0
    capsys.readouterr()
    assert out_cfg.read_bytes() == out_flags.read_bytes()


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("n = 6\nbogus = 1\n")
    assert main(["classify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "bad.ini:2" in err and "bogus" in err


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("just words\n")
    assert main(["classify", "--config", str(cfg)]) == 1
    assert "key = value" in capsys.readouterr().err


def test_jobs_must_be_positive(capsys):
    assert main(["classify", "--n", "6", "--alpha", "0", "--p", "4", "--samples", "0",
                 "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert main(["classify", "--n", "6", "--alpha", "0", "--p", "4", "--samples", "0",
                 "--jobs", "2"]) == 0


def test_atlas_grid_flag(capsys):
    assert main(["atlas", "--grid", "6 0 4; 6,0,5"]) == 0
    out = capsys.readouterr().out
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(data) == 3  # header plus two rows
    assert main(["atlas", "--grid", "6 0"]) == 1
    assert "triple" in capsys.readouterr().err


def test_green_check_field_round_trip(tmp_path, capsys):
    grid = make_grid(count=512)
    field = RadialField(grid=grid, values=np.ones(grid.count), n=6, alpha=0.0, p=4.0)
    path = tmp_path / "source.csv"
    field.save(path)
    assert main(["green-check", "--field", str(path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# radial-field n=6 alpha=0 p=4"
    solved = RadialField.load(_write(tmp_path / "solved.csv", out))
    # Navier solve of the constant source, checked at the deepest node
    assert solved.values[0] == pytest.approx(5.0 / 1152.0, abs=1e-8)


def _write(path, text):
    path.write_text(text)
    return path


def test_green_check_field_header_names_the_dimension_solved_with(tmp_path, capsys):
    grid = make_grid(count=512)
    field = RadialField(grid=grid, values=np.ones(grid.count), n=5, alpha=0.0, p=4.0)
    field.save(tmp_path / "source.csv")
    assert main(["green-check", "--field", str(tmp_path / "source.csv"), "--n", "7",
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# radial-field n=7 alpha=0 p=4"
    solved = RadialField.load(_write(tmp_path / "solved.csv", out))
    assert solved.n == 7
    want = bilaplacian_solve_radial(RadialField.load(tmp_path / "source.csv"), 7)
    assert np.array_equal(solved.values, want.values)


@pytest.mark.parametrize("command", ["classify", "energy-audit", "green-check"])
def test_tol_outside_integrator_range_is_usage_error(command, capsys):
    # A tolerance the integrator refuses fails the command up front instead
    # of printing a table whose every row carries the same failure note.
    for tol in ("1e-3", "1e-14"):
        assert main([command, "--n", "6", "--alpha", "0", "--p", "4", "--samples", "1",
                     "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tol={float(tol)!r} outside [1e-13, 0.0001]" in captured.err


def test_green_check_field_negative_is_numerical_failure(tmp_path, capsys):
    grid = make_grid(count=512)
    values = np.ones(grid.count)
    values[100] = -0.25
    RadialField(grid=grid, values=values).save(tmp_path / "bad.csv")
    assert main(["green-check", "--field", str(tmp_path / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "node 100" in err


def test_green_check_field_needs_dimension(tmp_path, capsys):
    grid = make_grid(count=512)
    RadialField(grid=grid, values=np.ones(grid.count)).save(tmp_path / "plain.csv")
    assert main(["green-check", "--field", str(tmp_path / "plain.csv")]) == 1
    assert "--n" in capsys.readouterr().err


def test_green_check_field_header_dimension(tmp_path, capsys):
    # A header n below 3 or not an integer, or an alpha or p that is not a
    # finite number, breaks the file's rules (exit 2, naming the file and
    # the label); --n 2 on the command line is a usage error.
    grid = make_grid(count=512)
    text = RadialField(grid=grid, values=np.ones(grid.count), n=6, alpha=0.0, p=4.0).dumps()
    for old, label in (("n=6", "n=2"), ("n=6", "n=x"), ("n=6", "n=6.5"),
                       ("alpha=0", "alpha=x"), ("p=4", "p=nan"), ("alpha=0", "alpha=inf")):
        path = _write(tmp_path / f"{label}.csv", text.replace(old, label, 1))
        assert main(["green-check", "--field", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert "invalid field data" in err and f"{path}: header label {label} " in err
    path = _write(tmp_path / "n6.csv", text)
    assert main(["green-check", "--field", str(path), "--n", "2"]) == 1
    assert "error: need dimension n >= 3" in capsys.readouterr().err


def test_energy_audit_command(capsys):
    assert main(["energy-audit", "--n", "6", "--alpha", "0", "--p", "4",
                 "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# result-table kind=energy-audit")
    assert "max_violation" in out


@pytest.mark.parametrize("command", ["coeffs", "energy-audit"])
def test_infinite_exponent_is_usage_error(command, capsys):
    for bad, message in ((["--alpha", "0", "--p", "inf"], "need finite p, got p=inf"),
                         (["--alpha", "inf", "--p", "4"], "need finite alpha, got alpha=inf")):
        assert main([command, "--n", "6", *bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_atlas_grid_rejects_unusable_triples_per_row(capsys):
    assert main(["atlas", "--grid", "6.5 0 4; inf 0 4; 6 1e300 4; 6 0 4",
                 "--format", "csv"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 5
    assert rows[1].startswith("6.5,0.0,4.0,")
    assert rows[1].endswith("dimension n must be an integer; got 6.5")
    for row in rows[2:4]:
        assert row.split(",")[13:16] == ["", "", ""] and row.split(",")[16]
    assert rows[4].endswith(",Subcritical,true,1.9917354429142955,")


def test_large_B_prints_no_traceback(capsys):
    # At (12, -3, 1.006) B is about 166: the equilibrium a0^(1/(p-1)) and
    # r^-B overflow a double.
    triple = ["--n", "12", "--alpha", "-3", "--p", "1.006", "--format", "csv"]
    for command in ("atlas", "coeffs", "energy-audit", "green-check"):
        drawn = ["--samples", "2"] if command in ("energy-audit", "green-check") else []
        assert main([command] + triple + drawn) == 0, command
        out = capsys.readouterr().out
        assert "overflows" in out, command
    assert main(["coeffs"] + triple) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[-2] == ""  # w_star blank, the rest of the row kept
    assert row[13] == "OutOfRange"


def test_config_values_get_flag_checks(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("n = 6\nalpha = 0\np = 4\nformat = xml\n")
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--format", "xml", "--n", "6", "--alpha", "0", "--p", "4"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["coeffs", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "run.ini:4" in err and "xml" in err
    cfg.write_text("n = 6\nalpha = 0\np = 4\nquiet = maybe\n")
    assert main(["coeffs", "--config", str(cfg)]) == 1
    assert "quiet" in capsys.readouterr().err


def _field_file(path, radii):
    lines = ["# radial-field n=6 alpha=0 p=4"] + [f"{float(r)!r},1.0" for r in radii]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_green_check_field_descending_radii_is_numerical_failure(tmp_path, capsys):
    radii = make_grid(count=512).nodes[::-1]
    assert main(["green-check", "--field", str(_field_file(tmp_path / "d.csv", radii))]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "ascending" in err


def test_green_check_field_not_ending_at_one_is_numerical_failure(tmp_path, capsys):
    radii = make_grid(count=512).nodes / 2.0
    assert main(["green-check", "--field", str(_field_file(tmp_path / "h.csv", radii))]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "r = 1" in err


def test_green_check_field_data_defects_exit_two(tmp_path, capsys):
    uneven = _field_file(tmp_path / "uneven.csv", [0.1, 0.2, 0.9, 1.0])
    assert main(["green-check", "--field", str(uneven)]) == 2
    assert "log-uniform" in capsys.readouterr().err
    assert main(["green-check", "--field", str(tmp_path / "missing.csv")]) == 1
    # Rows outside the writer's grammar go through numpy's text reader: a
    # whitespace-only line, a '#' inside a row and a cell float() would take
    # but numpy's reader does not ('1_0') are each invalid field data that
    # names the file.
    rows = _field_file(tmp_path / "good.csv", make_grid(count=512).nodes).read_text().splitlines()
    row = rows[100]
    for name, middle in (("blank.csv", [" ", row]), ("hash.csv", [row + "#note"]),
                         ("underscore.csv", [row.replace(",1.0", ",1_0")])):
        path = _write(tmp_path / name, "\n".join(rows[:100] + middle + rows[101:]) + "\n")
        assert main(["green-check", "--field", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid field data" in err and str(path) in err
    # A row with a third cell is named by its body row, counted from 0.
    extra = rows[:101] + [rows[101] + ",3"] + rows[102:]
    path = _write(tmp_path / "extra.csv", "\n".join(extra) + "\n")
    assert main(["green-check", "--field", str(path)]) == 2
    assert f"{path}: expected 'radius,value' rows: body row 100 has 3 cells" in capsys.readouterr().err


def test_green_check_field_below_node_floor_exits_two(tmp_path, capsys):
    # 3 nodes, and 10 nodes spanning 20 octaves (step h = 1.39): both are
    # log-uniform and end at r = 1, but fewer than make_grid's 256 nodes.
    for name, radii in (("three.csv", [0.25, 0.5, 1.0]),
                        ("ten.csv", [2.0 ** (-2 * k) for k in range(9, -1, -1)])):
        assert main(["green-check", "--field", str(_field_file(tmp_path / name, radii))]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "need at least 256" in err


def test_green_check_field_output_ignores_blas_core(tmp_path):
    # The quadrature never calls BLAS, so the OpenBLAS kernel picked for
    # the CPU cannot change the solved field.  Prescott is the SSE3
    # baseline, safe on any x86-64 CPU; other BLAS builds ignore it.
    grid = make_grid(count=512)
    path = tmp_path / "source.csv"
    RadialField(grid=grid, values=grid.nodes**-1.5, n=6, alpha=0.0, p=4.0).save(path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for core in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        run = subprocess.run(
            [sys.executable, "-m", "hardyhenon4.cli", "green-check", "--field", str(path),
             "--quiet"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outs.append(run.stdout)
    assert outs[0].startswith("# radial-field n=6")
    assert outs[0] == outs[1]


# The options each command reads, beside out, format and quiet, which
# every command takes so that one config file can set them for all runs.
TAKES = {
    "coeffs": {"n", "alpha", "p"},
    "atlas": {"n", "alpha", "p", "grid"},
    "simulate": {"n", "alpha", "p", "tol", "seed", "margin", "t_end"},
    "classify": {"n", "alpha", "p", "tol", "seed", "samples", "margin", "t_end", "jobs"},
    "energy-audit": {"n", "alpha", "p", "tol", "seed", "samples", "t_end"},
    "green-check": {"n", "alpha", "p", "tol", "seed", "samples", "grid_nodes", "field"},
}
UNREAD = [(command, opt) for command in COMMANDS for opt in _OPTIONS.values()
          if command not in opt.commands]


def _example(opt) -> str:
    if opt.choices:
        return opt.choices[0]
    return {int: "1", float: "1.0", str: "x", bool: "true"}[opt.type]


def test_declared_options_per_command():
    declared = {c: {o.name for o in _OPTIONS.values() if c in o.commands} for c in COMMANDS}
    assert declared == {c: names | {"out", "format", "quiet"} for c, names in TAKES.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_declared_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    declared = {o.flag for o in _OPTIONS.values() if command in o.commands}
    assert listed - {"--help", "--config"} == declared


@pytest.mark.parametrize("command,opt", UNREAD, ids=[f"{c}-{o.name}" for c, o in UNREAD])
def test_option_the_command_does_not_read_is_usage_error(command, opt, tmp_path, capsys):
    value = [] if opt.type is bool else [_example(opt)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "6", "--alpha", "0", "--p", "4", opt.flag, *value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hardyhenon4 {command} ")
    assert f"hardyhenon4 {command}: error: unrecognized arguments: {opt.flag}" in err
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"n = 6\nalpha = 0\np = 4\n{opt.name} = {_example(opt)}\n")
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"run.ini:4: config key {opt.name!r} is not read by {command}" in captured.err


def test_atlas_grid_rejects_a_triple_beside_it(tmp_path, capsys):
    assert main(["atlas", "--grid", "6 0 4", "--n", "7", "--alpha", "1", "--p", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid does not read --n, --alpha, --p" in captured.err
    cfg = tmp_path / "run.ini"
    cfg.write_text("p = 9\n")
    assert main(["atlas", "--config", str(cfg), "--grid", "6 0 4"]) == 1
    assert "--grid does not read --p" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--alpha", "1"], ["--p", "3"], ["--tol", "1e-9"],
                                   ["--seed", "2"], ["--samples", "3"],
                                   ["--grid-nodes", "4096"]])
def test_green_check_field_rejects_study_options(extra, tmp_path, capsys):
    grid = make_grid(count=512)
    RadialField(grid=grid, values=np.ones(grid.count), n=6).save(tmp_path / "f.csv")
    assert main(["green-check", "--field", str(tmp_path / "f.csv"), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--field does not read {extra[0]}" in captured.err


def test_simulate_margin_that_swallows_the_equilibrium_is_usage_error(capsys):
    # w* = 1.99 at (6, 0, 4): a margin of 10 put both equilibria in one
    # tube and printed a confident ConvergesToZero.
    args = ["simulate", "--n", "6", "--alpha", "0", "--p", "4", "--t-end", "-3", "--seed", "3"]
    assert main(args + ["--margin", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "margin 10 swallows the equilibrium" in captured.err
    assert main(args + ["--margin", "1e-3"]) == 0
    assert "classified Undetermined" in capsys.readouterr().err


def test_one_process_parses_as_fresh_processes_do(monkeypatch, capsys):
    # The parsers are built once per process; each call must still print
    # the bytes, and exit with the status, of a process of its own.
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    calls = [
        ["classify", "--n", "6", "--samples", "many"],
        ["classify", "--n", "6", "--alpha", "0", "--p", "4", "--samples", "3", "--seed", "5",
         "--t-end", "-20", "--format", "csv"],
        ["atlas", "--grid", "6 0 4; 7 0 3", "--format", "csv"],
        ["green-check", "--n", "6", "--alpha", "0", "--p", "4", "--margin", "1e-3"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = (code, *capsys.readouterr())
        run = subprocess.run([sys.executable, "-m", "hardyhenon4.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert got == (run.returncode, run.stdout, run.stderr), argv
        codes.append(code)
    assert codes == [1, 0, 0, 1]


def test_flags_of_one_parse_never_reach_the_next():
    first = parse_invocation(["classify", "--n", "6", "--quiet", "--samples", "3",
                              "--config", "c.ini"])
    assert first.flags == {"n": 6, "quiet": True, "samples": 3}
    second = parse_invocation(["classify", "--n", "7"])
    assert (second.flags, second.config_path) == ({"n": 7}, None)
    third = parse_invocation(["atlas", "--grid", "6 0 4"])
    assert (third.command, third.flags) == ("atlas", {"grid": "6 0 4"})
