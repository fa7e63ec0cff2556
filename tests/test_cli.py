import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardyhenon4 import cli
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


def test_simulate_ends_at_a_horizon_the_grid_rounds_past(capsys):
    # 35 * 0.01 rounds past 0.35: the last row is the end point itself.
    assert main(["simulate", "--n", "6", "--alpha", "0", "--p", "4",
                 "--t-end", "-0.35"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[-2:]] == ["-0.34", "-0.35"]


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
    assert main(["atlas", "--grid", ";"]) == 1
    assert "hardyhenon4 atlas: error: grid is empty" in capsys.readouterr().err


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
    # At alpha = 1e300 a power of B overflows a double, and at n = 1e308
    # and 1e200 n * n does: the row names the triple and has no
    # coefficient, regime or equilibrium cells.
    assert main(["atlas", "--grid", "6.5 0 4; inf 0 4; 6 1e300 4; 1e308 0 4; 1e200 0 4; 6 0 4",
                 "--format", "csv"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 7
    assert rows[1].startswith("6.5,0.0,4.0,")
    assert rows[1].endswith("dimension n must be an integer; got 6.5")
    for row in rows[2:6]:
        assert row.split(",")[13:16] == ["", "", ""] and row.split(",")[16]
    assert rows[3].split(",")[1:] == ["1e+300", "4.0"] + [""] * 13 + [
        "coefficients overflow a double at n=6; alpha=1e+300; p=4.0"]
    for row, n in zip(rows[4:6], ("1e+308", "1e+200")):
        assert row.split(",")[1:] == ["0.0", "4.0"] + [""] * 13 + [
            f"coefficients overflow a double at n={n}; alpha=0.0; p=4.0"]
    assert rows[6].endswith(",Subcritical,true,1.9917354429142955,")


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


def test_config_booleans_switch_quiet(tmp_path, capsys):
    # An accepted config boolean: yes silences simulate's diagnostic line,
    # 0 keeps it.
    cfg = tmp_path / "run.ini"
    for value, silent in (("yes", True), ("0", False)):
        cfg.write_text(f"n = 6\nalpha = 0\np = 4\nquiet = {value}\n")
        assert main(["simulate", "--config", str(cfg), "--t-end", "-3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# result-table kind=trajectory"), value
        assert (captured.err == "") == silent, value
        assert silent or captured.err.startswith("terminated ReachedEnd at t=-3; classified")


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
    zero = _field_file(tmp_path / "zero.csv", [0.0, 0.25, 0.5, 1.0])
    assert main(["green-check", "--field", str(zero)]) == 2
    assert f"{zero}: radii must be positive" in capsys.readouterr().err
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


def test_green_check_field_too_shallow_for_the_tail_exits_two(tmp_path, capsys):
    # The file is a valid field, but spans less than the two octaves below
    # r = 1 that the solve's tail estimate reads: a numerical failure.
    # --n 2 on it stays a usage error.
    radii = np.exp(np.linspace(math.log(0.61), 0.0, 256))
    path = _field_file(tmp_path / "shallow.csv", radii)
    assert main(["green-check", "--field", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "hardyhenon4 green-check: numerical failure: grid too shallow for the octave tail "
        "estimate: its smallest radius 0.61 is above r = 0.249597, two octaves below r = 1\n"
    )
    assert main(["green-check", "--field", str(path), "--n", "2"]) == 1
    assert "error: need dimension n >= 3" in capsys.readouterr().err


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
    "classify": {"n", "alpha", "p", "grid", "tol", "seed", "samples", "margin", "t_end", "jobs"},
    "energy-audit": {"n", "alpha", "p", "grid", "tol", "seed", "samples", "t_end"},
    "green-check": {"n", "alpha", "p", "grid", "tol", "seed", "samples", "grid_nodes", "field"},
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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_option_table_matches_the_declared_options():
    # The per-command table of the README's command-line section, which
    # leaves out the output options every command takes.
    lines = README.read_text().splitlines()
    start = lines.index("| command | options |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, options = line.strip("|").split("|")
        table[command.strip().strip("`")] = set(re.findall(r"--[a-z][a-z-]*", options))
    declared = {c: {o.flag for o in _OPTIONS.values() if c in o.commands} for c in COMMANDS}
    assert table == {c: flags - {"--out", "--format", "--quiet"} for c, flags in declared.items()}


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


SWEEPS = ("classify", "energy-audit", "green-check")


@pytest.mark.parametrize("command", SWEEPS)
def test_grid_beside_a_triple_is_usage_error(command, tmp_path, capsys):
    assert main([command, "--grid", "6 0 4", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"hardyhenon4 {command}: error: --grid does not read --n" in captured.err
    cfg = tmp_path / "run.ini"
    cfg.write_text("grid = 6 0 4; 7 0 3\nalpha = 0\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert "--grid does not read --alpha" in capsys.readouterr().err


# The benchmark's triples of each sweep.
ONE_TRIPLES = {
    "classify": ("6 0 4", "7 0 3", "6 -1 3.5"),
    "energy-audit": ("6 0 4", "6 0 5", "6 0 5.5"),
    "green-check": ("6 0 4", "7 0 3", "6 -1 3.5"),
}


@pytest.mark.parametrize("command", SWEEPS)
def test_one_grid_triple_prints_the_triple_form_bytes(command, kernel_paths, capsys):
    for path in kernel_paths():
        for triple in ONE_TRIPLES[command]:
            n, alpha, p = triple.split()
            for fmt in ("csv", "aligned"):
                outs = []
                for given in (["--grid", triple], ["--n", n, "--alpha", alpha, "--p", p]):
                    argv = [command, *given, "--samples", "2", "--seed", "23", "--format", fmt]
                    assert main(argv) == 0, (path, argv)
                    outs.append(capsys.readouterr())
                assert outs[0] == outs[1], (path, triple, fmt)


def test_grid_reads_an_integer_n_exactly(capsys):
    # 2^53 + 1 is no double: --n reads it as an int, and so does --grid.
    outs = []
    for given in (["--grid", "9007199254740993 0 4"],
                  ["--n", "9007199254740993", "--alpha", "0", "--p", "4"]):
        assert main(["atlas", *given, "--format", "csv"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[-1].startswith("9007199254740993,0.0,4.0,")


# An invalid triple, one outside the dichotomy window, one without w*
# (a0 < 0), one whose draws end in step-size underflow, and a normal one.
MIXED_GRID = "3 0 4; 6 0 5.5; 6 0 2.5; 5 2 100; 6 0 4"
MIXED_TRIPLES = [("3", "0.0", "4.0"), ("6", "0.0", "5.5"), ("6", "0.0", "2.5"),
                 ("5", "2.0", "100.0"), ("6", "0.0", "4.0")]


@pytest.mark.parametrize("command", SWEEPS)
def test_grid_sweep_prints_every_triple_in_grid_order(command, capsys):
    argv = [command, "--grid", MIXED_GRID, "--seed", "1", "--samples", "2", "--format", "csv"]
    assert main(argv) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[4:]]
    triples = [tuple(row[:3]) for row in rows]
    assert triples == sorted(triples, key=MIXED_TRIPLES.index)  # in grid order, each contiguous
    by_triple = {t: [row[3:] for row in rows if tuple(row[:3]) == t] for t in MIXED_TRIPLES}
    assert [cells[-1] for cells in by_triple[MIXED_TRIPLES[0]]] == ["need n > 2m; got n=3; m=2"]
    outside, no_wstar, underflow, normal = (by_triple[t] for t in MIXED_TRIPLES[1:])
    if command == "classify":
        for cells in outside + no_wstar:
            assert cells[1] == "reject" and "outside the admissible window" in cells[-1]
        assert [cells[1:3] for cells in underflow] == [["draw", "0"], ["draw", "1"]]
        assert [cells[1] for cells in normal].count("draw") == 2
    if command == "energy-audit":
        assert [cells[1] for cells in outside] == ["0", "1"]
        assert all(cells[-1] == "no monotone-direction contract for OutOfRange"
                   for cells in no_wstar)
        assert [cells[1] for cells in underflow] == ["0", "1"]
    if command != "green-check":
        assert all(cells[-1].startswith("step size underflow at t=") for cells in underflow)
        assert all(not cells[-1] for cells in normal)
    else:
        assert [cells[1] for cells in no_wstar] == ["removable", "reject"]
        assert no_wstar[1][-1] == "no positive equilibrium (a0 <= 0)"
        for cells in (outside, underflow, normal):
            assert [c[1] for c in cells] == ["removable", "exact", "perturbed", "perturbed"]


@pytest.mark.parametrize("extra", [["--alpha", "1"], ["--p", "3"], ["--tol", "1e-9"],
                                   ["--seed", "2"], ["--samples", "3"],
                                   ["--grid-nodes", "4096"], ["--format", "csv"],
                                   ["--grid", "6 0 4"]])
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


def test_atlas_grid_notes_a_non_finite_n(capsys):
    assert main(["atlas", "--grid", "nan 0 4; inf 0 4; -inf 0 4", "--format", "csv"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[4:]]
    assert [(row[0], row[16]) for row in rows] == [
        ("nan", "need finite n; got n=nan"),
        ("inf", "need finite n; got n=inf"),
        ("-inf", "need finite n; got n=-inf"),
    ]
    assert all(row[3:16] == [""] * 13 for row in rows)


# What `import hardyhenon4.cli` may load after numpy, on CPython 3.11: the
# package's nine modules and these eight, so an import that would grow the
# start-up time of every command shows here.
_STARTUP_MODULES = {
    "hardyhenon4", "hardyhenon4._dp5", "hardyhenon4.cli", "hardyhenon4.dynamics",
    "hardyhenon4.energy", "hardyhenon4.experiments", "hardyhenon4.green",
    "hardyhenon4.params", "hardyhenon4.transform",
    "__future__", "_blake2", "_hashlib", "argparse", "copy", "dataclasses", "gettext", "hashlib",
}


def test_cli_import_loads_no_new_module():
    code = ("import sys, numpy; before = set(sys.modules); import hardyhenon4.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    added = set(run.stdout.split())
    assert "hardyhenon4.cli" in added
    assert added <= _STARTUP_MODULES, sorted(added - _STARTUP_MODULES)
