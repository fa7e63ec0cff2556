import hashlib
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hardyhenon4 import _dp5, cli, dynamics, experiments
from hardyhenon4.params import ProblemParams, classify_regime, coefficients, critical_exponents
from hardyhenon4.dynamics import CONVERGES_TO_FIXED_POINT
from hardyhenon4.experiments import (
    ExperimentConfig,
    ResultTable,
    run_atlas,
    run_classification_sweep,
    run_energy_audit,
    run_experiment,
    run_green_study,
)

WSTAR = 1.9917354429142955


def _col(table: ResultTable, name: str) -> int:
    return table.schema.index(name)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(kind="spectral")
    with pytest.raises(ValueError, match="triples"):
        ExperimentConfig(kind="atlas", param_grid=((6, 0.0),))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", tol=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", samples=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", samples=2.5)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", seed=2**64)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", box=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", horizon=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="atlas", grid_nodes=100)


@pytest.mark.parametrize("name,value", [("samples", 2.0), ("samples", True), ("seed", 2.5),
                                        ("seed", 2.0), ("grid_nodes", 2048.0)])
def test_config_counts_must_be_ints(name, value):
    # A float count would fail late in range(), run another seed's draws
    # under its own digest, or hash apart from the equal int.
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        ExperimentConfig(kind="atlas", **{name: value})


def test_config_accepts_params_objects():
    cfg = ExperimentConfig(kind="atlas", param_grid=(ProblemParams(6, 0.0, 4.0),))
    assert cfg.param_grid == ((6, 0.0, 4.0),)


def test_config_normalizes_params_objects_like_triples():
    # An int alpha or p is a float either way, and an int n past every
    # double stays exact either way.
    for params in (ProblemParams(6, 0, 4), ProblemParams(5, 2**53 + 1, 1e30),
                   ProblemParams(10**400, 0.0, 4.0), ProblemParams(6.0, -1, 3.5)):
        triple = (params.n, params.alpha, params.p)
        by_params = ExperimentConfig(kind="atlas", param_grid=(params,))
        by_triple = ExperimentConfig(kind="atlas", param_grid=(triple,))
        assert by_params.param_grid == by_triple.param_grid, params
        assert [type(v) for v in by_params.param_grid[0][1:]] == [float, float], params
        assert by_params.digest() == by_triple.digest(), params
        assert run_atlas(by_params).to_csv() == run_atlas(by_triple).to_csv(), params
    cfg = ExperimentConfig(kind="atlas", param_grid=(ProblemParams(6, 0, 4),))
    assert run_atlas(cfg).to_csv().splitlines()[4].startswith("6,0.0,4.0,")


def test_config_digest_tracks_content():
    a = ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0),))
    b = ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0),))
    c = ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0),), seed=1)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert re.fullmatch(r"[0-9a-f]{64}", a.digest())


def test_result_table_checks_row_arity():
    with pytest.raises(ValueError, match="row 0"):
        ResultTable(kind="atlas", schema=("a", "b"), rows=((1.0,),), config_digest="x")


def test_atlas_rows():
    cfg = ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0), (6, 0.0, 5.0)))
    table = run_atlas(cfg)
    assert len(table.rows) == 2
    row = table.rows[0]
    assert row[_col(table, "serrin")] == 3.0
    assert row[_col(table, "hardy_sobolev")] == 5.0
    assert row[_col(table, "a0")] == pytest.approx(640.0 / 81.0, rel=1e-14)
    assert row[_col(table, "regime")] == "Subcritical"
    assert row[_col(table, "signs_ok")] is True
    assert row[_col(table, "w_star")] == WSTAR
    assert row[_col(table, "note")] == ""
    crit = table.rows[1]
    assert crit[_col(table, "regime")] == "Critical"
    assert crit[_col(table, "a1")] == 0.0
    assert crit[_col(table, "a3")] == 0.0


def test_atlas_error_row_and_empty_grid():
    cfg = ExperimentConfig(kind="atlas", param_grid=((4, 0.0, 4.0),))
    table = run_atlas(cfg)
    assert len(table.rows) == 1
    assert "n > 2m" in table.rows[0][_col(table, "note")]
    assert table.rows[0][_col(table, "regime")] is None
    empty = run_atlas(ExperimentConfig(kind="atlas"))
    assert empty.rows == ()


def test_atlas_regimes_agree_with_classifier():
    grid = ((6, 0.0, 4.0), (6, 0.0, 5.5), (6, -1.0, 5.0), (5, -1.0, 3.2))
    table = run_atlas(ExperimentConfig(kind="atlas", param_grid=grid))
    for triple, row in zip(grid, table.rows):
        want = classify_regime(coefficients(ProblemParams(*triple))).regime
        assert row[_col(table, "regime")] == want


def test_serialization_deterministic_and_clean():
    cfg = ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 4.0),),
        samples=2, seed=9, horizon=-12.0,
    )
    first = run_classification_sweep(cfg).to_csv()
    second = run_classification_sweep(cfg).to_csv()
    assert first == second
    assert "np.float64" not in first
    head = first.splitlines()
    assert head[0] == "# result-table kind=classification"
    assert head[1] == f"# config sha256={cfg.digest()}"
    assert head[2].startswith("# generator hardyhenon4 ")
    assert "numpy" in head[2]


def test_seed_changes_draws():
    base = dict(
        kind="classification", param_grid=((6, 0.0, 4.0),), samples=2, horizon=-12.0
    )
    t0 = run_classification_sweep(ExperimentConfig(seed=0, **base))
    t1 = run_classification_sweep(ExperimentConfig(seed=1, **base))
    w0 = [r[_col(t0, "terminal_w0")] for r in t0.rows if r[_col(t0, "kind")] == "draw"]
    w1 = [r[_col(t1, "terminal_w0")] for r in t1.rows if r[_col(t1, "kind")] == "draw"]
    assert w0 != w1


def test_draws_are_a_prefix_when_samples_grow():
    base = dict(kind="classification", param_grid=((6, 0.0, 4.0),), seed=5, horizon=-12.0)
    small = run_classification_sweep(ExperimentConfig(samples=3, **base))
    large = run_classification_sweep(ExperimentConfig(samples=6, **base))
    draws_small = [r for r in small.rows if r[_col(small, "kind")] == "draw"]
    draws_large = [r for r in large.rows if r[_col(large, "kind")] == "draw"]
    assert draws_large[:3] == draws_small


def test_keyed_draws_are_those_of_a_fresh_philox_per_key():
    # One Philox re-keyed per draw gives the bits of a Philox built for
    # that key, whatever the previous key left in its counter and its
    # 32-bit buffer (bytes(5) leaves half a word there).
    keys = (0, (5 << 32) | 17, 2**64 - 1)
    for seed in (0, 23, 2**64 - 1):
        keyed = experiments._keyed_rng(seed)
        for key in keys + keys[::-1]:
            fresh = np.random.Generator(np.random.Philox(key=np.array([seed, key], np.uint64)))
            rng = keyed(key)
            for draw in (lambda g: g.bytes(5), lambda g: g.uniform(-1.0, 1.0, 4).tobytes(),
                         lambda g: g.integers(0, 2**64, 3, dtype=np.uint64).tobytes()):
                assert draw(rng) == draw(fresh), (seed, key)


def test_collapsed_sampling_box_yields_pure_fixed_point_class():
    cfg = ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 4.0),),
        box=1e-20, tol=1e-13, horizon=-10.0, samples=8, seed=1,
    )
    table = run_classification_sweep(cfg)
    draws = [r for r in table.rows if r[_col(table, "kind")] == "draw"]
    assert len(draws) == 8
    assert all(r[_col(table, "limit_class")] == CONVERGES_TO_FIXED_POINT for r in draws)
    summaries = [r for r in table.rows if r[_col(table, "kind")] == "summary"]
    assert len(summaries) == 1
    assert summaries[0][_col(table, "limit_class")] == CONVERGES_TO_FIXED_POINT
    assert summaries[0][_col(table, "count")] == 8


def test_sweep_to_a_horizon_the_grid_rounds_past_has_no_error_row():
    # int(10.7 / 0.01) * 0.01 rounds past 10.7; every draw still ends at
    # the horizon and is classified.
    cfg = ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 4.0),),
        box=1e-20, tol=1e-13, horizon=-10.7, samples=8, seed=1,
    )
    table = run_classification_sweep(cfg)
    draws = [r for r in table.rows if r[_col(table, "kind")] == "draw"]
    assert len(draws) == 8
    assert all(r[_col(table, "limit_class")] == CONVERGES_TO_FIXED_POINT for r in draws)
    assert [r[_col(table, "note")] for r in draws] == [""] * 8


def test_sweep_rejects_points_outside_the_window():
    cfg = ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 9.0), (5, -1.0, 3.2)), samples=2
    )
    table = run_classification_sweep(cfg)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row[_col(table, "kind")] == "reject"
        assert row[_col(table, "note")] != ""
    assert "(3, 5)" in table.rows[0][_col(table, "note")]


def test_sweep_rejects_a_margin_that_swallows_the_equilibrium():
    base = dict(kind="classification", param_grid=((6, 0.0, 4.0),), samples=2, horizon=-12.0)
    table = run_classification_sweep(ExperimentConfig(margin=1.0, **base))
    assert len(table.rows) == 1
    assert table.rows[0][_col(table, "kind")] == "reject"
    assert table.rows[0][_col(table, "note")].startswith("margin 1 swallows the equilibrium")
    table = run_classification_sweep(ExperimentConfig(margin=0.49 * WSTAR, **base))
    assert [r[_col(table, "kind")] for r in table.rows][:2] == ["draw", "draw"]


def test_sweep_runs_exploratory_positive_alpha():
    cfg = ExperimentConfig(
        kind="classification", param_grid=((6, 1.0, 4.5),),
        samples=2, horizon=-12.0, seed=2,
    )
    table = run_classification_sweep(cfg)
    draws = [r for r in table.rows if r[_col(table, "kind")] == "draw"]
    assert len(draws) == 2
    for row in draws:
        assert row[_col(table, "note")].startswith("exploratory: ")


def test_energy_audit_cells():
    cfg = ExperimentConfig(
        kind="energy-audit", param_grid=((6, 0.0, 4.0),), samples=4, seed=3
    )
    table = run_energy_audit(cfg)
    assert len(table.rows) == 4
    for row in table.rows:
        assert row[_col(table, "regime")] == "Subcritical"
        assert row[_col(table, "max_violation")] == 0.0
        assert row[_col(table, "rate_mismatch")] <= 1e-4
        assert row[_col(table, "note")] == ""
        assert isinstance(row[_col(table, "e_initial")], float)
        assert isinstance(row[_col(table, "e_final")], float)


def test_energy_audit_flags_out_of_range():
    cfg = ExperimentConfig(
        kind="energy-audit", param_grid=((6, 0.0, 2.9),), samples=2, seed=3
    )
    table = run_energy_audit(cfg)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row[_col(table, "regime")] == "OutOfRange"
        assert row[_col(table, "note")] != ""


def test_green_study_rows():
    cfg = ExperimentConfig(
        kind="green-study", param_grid=((6, 0.0, 4.0),),
        samples=2, box=1e-5, tol=1e-12, seed=11,
    )
    table = run_green_study(cfg)
    cases = [r[_col(table, "case")] for r in table.rows]
    assert cases == ["removable", "exact", "perturbed", "perturbed"]

    removable = table.rows[0]
    assert removable[_col(table, "note")].startswith("superharmonic rejected:")
    assert removable[_col(table, "l1_converges")] is True
    assert removable[_col(table, "weighted_diverges")] is False

    exact = table.rows[1]
    assert exact[_col(table, "ratio")] > 4.0
    assert exact[_col(table, "tau")] == 1.0
    assert exact[_col(table, "l1_converges")] is True
    assert exact[_col(table, "weighted_diverges")] is True
    assert exact[_col(table, "sup0")] == pytest.approx(WSTAR, rel=1e-12)

    for row in table.rows[2:]:
        assert row[_col(table, "note")] == ""
        assert row[_col(table, "tau")] == 1.0
        assert row[_col(table, "neglap_min")] > 0.0
        assert row[_col(table, "sup0")] == pytest.approx(WSTAR, abs=1e-3)


def test_green_study_rejects_without_equilibrium():
    cfg = ExperimentConfig(
        kind="green-study", param_grid=((5, -1.0, 3.2),), samples=1
    )
    table = run_green_study(cfg)
    cases = [r[_col(table, "case")] for r in table.rows]
    assert cases == ["removable", "reject"]
    assert "a0" in table.rows[1][_col(table, "note")]


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0),))
    assert run_experiment(cfg).to_csv() == run_atlas(cfg).to_csv()


def test_aligned_rendering():
    cfg = ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0),))
    text = run_atlas(cfg).to_aligned()
    lines = text.splitlines()
    assert lines[3].startswith("n ")
    assert "Subcritical" in text
    assert not any(ln.endswith(" ") for ln in lines)


def _cell_by_cell(table: ResultTable) -> tuple[str, str]:
    """to_csv() and to_aligned() as they read with every cell through _fmt."""
    fmt = experiments._fmt
    lines = table._header_lines() + [",".join(table.schema)]
    lines += [",".join(fmt(c) for c in row) for row in table.rows]
    csv = "\n".join(lines) + "\n"
    cells = [list(table.schema)] + [[fmt(c) for c in row] for row in table.rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(table.schema))]
    lines = table._header_lines()
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    return csv, "\n".join(lines) + "\n"


def test_tables_print_by_column_as_cell_by_cell(kernel_paths):
    # A column of exact floats and Nones goes through the row writer; a
    # numpy scalar, an int, a bool or a str cell, cell by cell.
    floats = [0.1, -0.0, 1e300, 5e-324, math.nan, math.inf, 1e16, 1e-4, 2.0**53 + 1.0]
    k = len(floats)
    columns = {
        "x": floats,
        "gaps": [None if i % 3 == 0 else floats[-1 - i] for i in range(k)],
        "np": [np.float64(v) for v in floats],
        "count": list(range(-2, k - 2)),
        "flag": [i % 2 == 0 for i in range(k)],
        "text": [f"a,b\nc {i}" for i in range(k)],
        "blank": [None] * k,
        "mixed": [None, 1, 2.5, "x", True, np.float32(0.1), None, 3.0, -7],
    }
    rows = tuple(zip(*columns.values()))
    tables = [ResultTable("atlas", tuple(columns), rows, "x"),
              ResultTable("atlas", tuple(columns), (), "x"),
              ResultTable("atlas", ("w",), ((None,), (1.0,), (None,)), "x")]
    for kernels in kernel_paths():
        for table in tables:
            assert (table.to_csv(), table.to_aligned()) == _cell_by_cell(table), kernels


@pytest.mark.parametrize(
    "kind", ["atlas", "classification", "energy-audit", "green-study"]
)
def test_non_integer_dimension_is_rejected_not_truncated(kind):
    table = run_experiment(
        ExperimentConfig(kind=kind, param_grid=((6.5, 0.0, 4.0),), samples=1)
    )
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row[_col(table, "n")] == 6.5
    assert "must be an integer" in row[_col(table, "note")]


def test_overflowing_equilibrium_stays_in_its_row():
    grid = ((12, -3.0, 1.006), (6, 0.0, 4.0))  # B is about 166 at the first point
    atlas = run_atlas(ExperimentConfig(kind="atlas", param_grid=grid))
    big, ok = atlas.rows
    assert big[_col(atlas, "w_star")] is None
    assert "overflows" in big[_col(atlas, "note")]
    assert big[_col(atlas, "a0")] > 0.0
    assert ok[_col(atlas, "w_star")] == WSTAR
    audit = run_energy_audit(
        ExperimentConfig(kind="energy-audit", param_grid=grid[:1], samples=2)
    )
    assert len(audit.rows) == 1
    assert "overflows" in audit.rows[0][_col(audit, "note")]


def test_overflowing_residual_is_named_in_its_row():
    # At (12, -3, 1.021525) w* is about 8.6e301, but w*^p overflows.
    atlas = run_atlas(ExperimentConfig(kind="atlas", param_grid=((12, -3.0, 1.021525),)))
    (row,) = atlas.rows
    assert row[_col(atlas, "w_star")] is None
    assert re.search(r"residual w\^p at the equilibrium .* overflows a double", row[_col(atlas, "note")])


_ONE_POINT = {
    "atlas": {},
    "classification": dict(samples=2, seed=1),
    "energy-audit": dict(samples=2, seed=1),
    "green-study": dict(samples=2, seed=1, box=1e-5, tol=1e-12, grid_nodes=256),
}


@pytest.mark.parametrize("run", [*_ONE_POINT, "simulate"])
def test_each_runner_finds_the_equilibrium_once(run, monkeypatch, capsys, kernel_paths):
    # One scan for the one grid point, on each kernel path: a call of
    # fixed_points, or a row of the compiled grid pass, which scans in C.
    scan, calls = dynamics.fixed_points, []

    def counting(coeffs):
        calls.append(coeffs)
        return scan(coeffs)

    for module in (dynamics, experiments):
        monkeypatch.setattr(module, "fixed_points", counting)
    compiled = _dp5.load()
    if compiled is not None:
        def grid(triples, row):
            calls.extend(triples)
            return compiled.grid(triples, row)

        monkeypatch.setattr(_dp5, "load", lambda: compiled._replace(grid=grid))
    for path in kernel_paths():
        calls.clear()
        if run == "simulate":
            assert cli.main(["simulate", "--n", "6", "--alpha", "0", "--p", "4", "--seed", "1"]) == 0
        else:
            run_experiment(ExperimentConfig(kind=run, param_grid=((6, 0.0, 4.0),), **_ONE_POINT[run]))
        assert len(calls) == 1, path


_SIMULATE = ["simulate", "--n", "6", "--alpha", "0", "--p", "4", "--seed", "0",
             "--tol", "1e-9", "--margin", "0.5"]


def test_simulate_hashes_its_own_config_kind(tmp_path, capsys):
    # simulate runs the first draw of a one-sample classification to
    # -15, but its table is the orbit, not the verdict: the two digests
    # must differ.
    paths = tmp_path / "simulate.csv", tmp_path / "classify.csv"
    classify = ["classify", *_SIMULATE[1:], "--samples", "1", "--t-end", "-15"]
    for argv, path in zip((_SIMULATE, classify), paths):
        assert cli.main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    digests = [path.read_text().splitlines()[1] for path in paths]
    assert digests[0].startswith("# config sha256=")
    assert digests[0] != digests[1]


def test_trajectory_runner_prints_the_simulate_table(tmp_path, capsys):
    out = tmp_path / "simulate.csv"
    assert cli.main([*_SIMULATE, "--out", str(out)]) == 0
    cfg = ExperimentConfig(
        kind="trajectory", param_grid=((6, 0.0, 4.0),), samples=1, horizon=-15.0,
        seed=0, tol=1e-9, margin=0.5,
    )
    table = run_experiment(cfg)
    assert table.to_csv() == out.read_text()
    assert capsys.readouterr().err == table.diagnostic + "\n"
    assert table.diagnostic.startswith("terminated ")


def test_trajectory_config_is_one_draw_at_one_point():
    point = (6, 0.0, 4.0)
    for grid, samples in (((point,), 64), ((point, point), 1)):
        with pytest.raises(ValueError, match="one grid point and samples=1"):
            run_experiment(ExperimentConfig(kind="trajectory", param_grid=grid, samples=samples))
    with pytest.raises(ValueError, match="no positive equilibrium"):
        run_experiment(ExperimentConfig(kind="trajectory", param_grid=((5, -1.0, 3.2),), samples=1))


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# The stable part (from the config digest on, the generator line left out)
# of the atlas table of the benchmark's 768 seed-23 triples, as the
# per-triple scalar path printed it before the grid pass.
ATLAS_23_SHA256 = "0cae190523729ddcc5e91b98c1adabe4e65f7b89d24a97415938521f5d2f9327"
# Every kind of grid row: an invalid n, no equilibrium, the rejects of
# test_atlas_grid_rejects_unusable_triples_per_row, non-finite n, an
# overflowing w* and w*^p, the critical triples and p just inside and just
# outside the criticality tolerance, B so small that its powers underflow to
# 0 or to subnormals, and the triples the kernel leaves to the scalar path:
# an int n past 2^52 (2**53 + 1 is no double, 10**400 past every double)
# and an int alpha or p.
EDGE_GRID = (
    (4, 0.0, 4.0), (5, -1.0, 3.2),
    (6.5, 0.0, 4.0), (math.inf, 0.0, 4.0), (6, 1e300, 4.0), (1e308, 0.0, 4.0),
    (1e200, 0.0, 4.0), (6, 0.0, 4.0),
    (math.nan, 0.0, 4.0), (-math.inf, 0.0, 4.0), (-1e300, 0.0, 4.0),
    (12, -3.0, 1.006), (12, -3.0, 1.021525),
    (6, 0.0, 5.0), (7, 0.0, 11.0 / 3.0), (6, -1.0, 4.0),
    (6, 0.0, 5.0 + 5e-13), (6, 0.0, 5.0 + 2e-12),
    (5, -3.9999999999999996, 1e300), (5, -3.9999999999999996, 4.4e64),
    (6, 2.0, 1.0000000000000002),
    (1e17, 0.0, 4.0), (2.0**53 + 2, 0.0, 4.0), (2**53 + 1, -1.0, 3.5), (2.0**52, 0.5, 1.5),
    ProblemParams(6, 0, 4), ProblemParams(5, 2**53 + 1, 1e30), ProblemParams(10**400, 0.0, 4.0),
)


def _atlas_triples(seed: int) -> list:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # @dataclass looks the module up while the body runs
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.atlas_triples(seed)


def _atlas_by_triple(config: ExperimentConfig) -> ResultTable:
    """The atlas table by the per-triple scalar path, row by row."""
    expected = {"Subcritical": ("+", "+", "-"), "Critical": ("+", "0", "0"),
                "Supercritical": ("+", "-", "+")}
    rows = []
    for n, alpha, p in config.param_grid:
        try:
            c = coefficients(ProblemParams(n, alpha, p))
        except (ValueError, ArithmeticError) as err:
            rows.append((n, alpha, p, *[None] * 13, str(err)))
            continue
        e = critical_exponents(c)
        wstar, note = None, ""
        if c.a0 > 0.0:
            try:
                wstar = dynamics.fixed_points(c)[1]
            except OverflowError as err:
                note = str(err)
        ok = expected.get(c.regime)
        rows.append((
            n, alpha, p, e.serrin, e.hardy_sobolev, e.sobolev, e.upper_dichotomy,
            c.B, c.a0, c.a1, c.a2, c.a3, c.a4,
            c.regime, None if ok is None else classify_regime(c).signs == ok, wstar, note,
        ))
    table = run_atlas(config)
    return ResultTable(table.kind, table.schema, tuple(rows), config.digest())


def _stable_sha256(csv: str) -> str:
    lines = csv.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("# config sha256="))
    kept = [ln for ln in lines[start:] if not ln.startswith("# generator ")]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()


def test_grid_pass_prints_the_scalar_path_bytes(kernel_paths):
    seeded = ExperimentConfig(kind="atlas", param_grid=tuple(_atlas_triples(23)))
    edge = ExperimentConfig(kind="atlas", param_grid=EDGE_GRID)
    for path in kernel_paths():
        for config in (seeded, edge):
            csv = run_atlas(config).to_csv()
            assert csv == _atlas_by_triple(config).to_csv(), path
            assert run_atlas(config).to_aligned() == _atlas_by_triple(config).to_aligned(), path
        assert _stable_sha256(run_atlas(seeded).to_csv()) == ATLAS_23_SHA256, path


def test_grid_kernel_gives_its_twin_bits():
    compiled = _dp5.load()
    if compiled is None:
        pytest.skip("no compiled kernels")
    for grid in (EDGE_GRID, tuple(_atlas_triples(23)), ()):
        grid = ExperimentConfig(kind="atlas", param_grid=grid).param_grid
        codes, values = compiled.grid(grid, experiments._scalar_row)
        twin_codes, twin_values = _dp5._grid_py(grid, experiments._scalar_row)
        assert codes.shape == twin_codes.shape == (len(grid), _dp5.GRID_CODES)
        assert codes.tolist() == twin_codes.tolist()
        assert values.shape == (len(grid), _dp5.GRID_VALUES)
        assert values.tobytes() == twin_values.tobytes()


def test_grid_points_yield_the_scalar_coefficient_sets(kernel_paths):
    config = ExperimentConfig(kind="classification",
                              param_grid=EDGE_GRID + tuple(_atlas_triples(23)))
    for path in kernel_paths():
        rows, seen = [], []
        for idx, coeffs, tag, wstar, problem in experiments._grid_points(config, ("note",), rows):
            want = coefficients(ProblemParams(*config.param_grid[idx]))
            assert (coeffs, repr(coeffs)) == (want, repr(want)), (path, idx)
            assert tag == dict(n=want.n, alpha=want.alpha, p=want.p, regime=want.regime)
            seen.append(idx)
        assert len(rows) + len(seen) == len(config.param_grid) and len(rows) == 10, path
