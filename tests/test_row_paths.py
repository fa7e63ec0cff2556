"""Row-path regression: every way a runner turns a grid triple into rows.

Each case runs a small config through one runner (or the `simulate`
command) and its CSV, from the `# config sha256` line onward with the
generator/numpy-version line skipped, is compared with the stored
tables in data/row_paths.expected.  Together the cases hit every row
path: invalid triples, points outside the dichotomy window (rejected,
or exploratory for alpha > 0), a sampling box that swallows the
equilibrium, per-draw failures, summary rows, OutOfRange audits and the
a0 <= 0 reject of the green study.

When a change moves these numbers on purpose, regenerate the stored
tables and list every moved cell with

    PYTHONPATH=src python tests/test_row_paths.py
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hardyhenon4 import _dp5
from hardyhenon4.cli import main
from hardyhenon4.experiments import ExperimentConfig, run_experiment

EXPECTED = Path(__file__).parent / "data" / "row_paths.expected"

INVALID = (4, 0.0, 4.0)        # n <= 2m
NO_EQUILIBRIUM = (5, -1.0, 3.2)  # a0 < 0
OUT_OF_RANGE = (6, 0.0, 2.9)   # p below Serrin

CASES = {
    "atlas": ExperimentConfig(
        kind="atlas",
        param_grid=((6, 0.0, 4.0), INVALID, NO_EQUILIBRIUM, (6, 0.0, 5.0), OUT_OF_RANGE),
    ),
    "classify": ExperimentConfig(
        kind="classification",
        param_grid=(INVALID, (6, 0.0, 9.0), (6, 1.0, 4.5), (6, 0.0, 4.0)),
        samples=3, seed=2, horizon=-12.0,
    ),
    "classify-box-swallows-equilibrium": ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 4.0),), samples=2, box=10.0,
    ),
    "classify-short-horizon": ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 4.0),),
        samples=2, seed=4, box=1e-9, horizon=-8.0,
    ),
    "energy-audit": ExperimentConfig(
        kind="energy-audit",
        param_grid=(INVALID, OUT_OF_RANGE, (6, 0.0, 4.0), NO_EQUILIBRIUM),
        samples=2, seed=3, horizon=-12.0,
    ),
    "energy-audit-few-samples": ExperimentConfig(
        kind="energy-audit", param_grid=((6, 0.0, 4.0),), samples=2, horizon=-0.5,
    ),
    "green": ExperimentConfig(
        kind="green-study",
        param_grid=(INVALID, NO_EQUILIBRIUM, (6, 0.0, 4.0)),
        samples=2, seed=11, box=1e-5, tol=1e-12, grid_nodes=256,
    ),
    "green-wide-box": ExperimentConfig(
        kind="green-study", param_grid=((6, 0.0, 4.0),),
        samples=3, seed=1, box=0.5, tol=1e-8, grid_nodes=256,
    ),
}

SIMULATE = ["simulate", "--n", "6", "--alpha", "0", "--p", "4",
            "--t-end", "-3", "--seed", "3", "--quiet"]


def _stable_part(csv: str) -> list[str]:
    lines = csv.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("# config sha256="))
    return [ln for ln in lines[start:] if not ln.startswith("# generator ")]


def render_cases(tmp_dir: Path) -> str:
    out = []
    for name, config in CASES.items():
        out.append(f"## {name}")
        out.extend(_stable_part(run_experiment(config).to_csv()))
    trajectory = tmp_dir / "simulate.csv"
    assert main(SIMULATE + ["--out", str(trajectory)]) == 0
    out.append("## simulate")
    out.extend(_stable_part(trajectory.read_text()))
    return "\n".join(out) + "\n"


def test_row_paths_match_stored_tables(tmp_path):
    got = render_cases(tmp_path).split("## ")
    want = EXPECTED.read_text().split("## ")
    assert [b.split("\n", 1)[0] for b in got] == [b.split("\n", 1)[0] for b in want]
    for block_got, block_want in zip(got, want):
        assert block_got == block_want


def test_python_loops_print_the_stored_tables(tmp_path, monkeypatch):
    # Without the compiled kernels of _dp5.c, integrate and fixed_points
    # run their Python loops, which must print the same bytes.
    monkeypatch.setattr(_dp5, "load", lambda: None)
    assert render_cases(tmp_path) == EXPECTED.read_text()


# Renders every case, then solves a 512-node field made by make_grid, in
# one fresh interpreter.  The source 1/r^2 uses only IEEE arithmetic, so
# every transcendental in the output is the package's own.
_CHILD = """
import sys, tempfile
from pathlib import Path
from hardyhenon4.cli import main
from hardyhenon4.green import RadialField, make_grid
from test_row_paths import render_cases
with tempfile.TemporaryDirectory() as tmp:
    sys.stdout.write(render_cases(Path(tmp)))
    grid = make_grid(count=512)
    source = Path(tmp) / "source.csv"
    RadialField(grid, 1.0 / (grid.nodes * grid.nodes), n=6, alpha=0.0, p=4.0).save(source)
    sys.stdout.flush()
    main(["green-check", "--field", str(source), "--quiet"])
"""


def test_tables_ignore_numpy_cpu_dispatch():
    # numpy picks SIMD kernels for exp and log by CPU at run time, and
    # OpenBLAS its BLAS kernels.  The tables take every exp and log from
    # libm and call no BLAS, so neither switching off every dispatched
    # feature numpy found here nor loading OpenBLAS's Prescott or Haswell
    # kernels may move a byte.
    found = np.__config__.CONFIG.get("SIMD Extensions", {}).get("found", [])
    variants = [{}, {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}]
    if found:
        variants.append({"NPY_DISABLE_CPU_FEATURES": " ".join(found)})
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(here.parent / "src"), str(here), env.get("PYTHONPATH")))
    )
    outs = []
    for variant in variants:
        run = subprocess.run(
            [sys.executable, "-c", _CHILD], env={**env, **variant},
            capture_output=True, text=True, timeout=300, check=True,
        )
        outs.append(run.stdout)
    assert "# radial-field n=6" in outs[0]
    for variant, out in zip(variants[1:], outs[1:]):
        assert out == outs[0], variant


def _relative_change(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "not numeric"
    return f"{abs(b - a) / abs(a):.2g} relative" if a else "old value is zero"


def report_moves(stored: str, rendered: str) -> list[str]:
    """One line per difference between two renderings: each moved config
    digest, each block whose name, header or row count changed, and every
    moved cell of the other blocks."""
    lines = []
    blocks_old, blocks_new = stored.split("## ")[1:], rendered.split("## ")[1:]
    if len(blocks_old) != len(blocks_new):
        lines.append(f"{len(blocks_old)} blocks -> {len(blocks_new)}; compare by hand")
    # Each block is its name, the config digest line, the header, the rows.
    for block_old, block_new in zip(blocks_old, blocks_new):
        (name, digest_old, header_old, *rows_old) = block_old.splitlines()
        (name_new, digest_new, header, *rows_new) = block_new.splitlines()
        if digest_old != digest_new:
            lines.append(f"{name_new}: {digest_old} -> {digest_new}")
        if (name, header_old, len(rows_old)) != (name_new, header, len(rows_new)):
            lines.append(f"{name_new}: name, header or row count changed; compare by hand")
            continue
        columns = next(csv.reader([header]))
        for row, (line_old, line_new) in enumerate(zip(rows_old, rows_new)):
            for column, old, new in zip(columns, *csv.reader([line_old, line_new])):
                if old != new:
                    lines.append(f"{name} row {row} {column}: {old} -> {new} "
                                 f"({_relative_change(old, new)})")
    return lines


def test_regeneration_report_lists_cells_under_a_digest_move():
    stored = "## a\n# config sha256=00\nx,y\n1,2\n3,4\n## b\n# config sha256=11\nz\n5\n"
    rendered = "## a\n# config sha256=99\nx,y\n1,2\n3,8\n## b\n# config sha256=11\nz,w\n5,6\n"
    assert report_moves(stored, rendered) == [
        "a: # config sha256=00 -> # config sha256=99",
        "a row 1 y: 4 -> 8 (1 relative)",
        "b: name, header or row count changed; compare by hand",
    ]
    assert report_moves(stored, stored) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rendered = render_cases(Path(tmp))
    stored = EXPECTED.read_text()
    EXPECTED.write_text(rendered)
    for line in report_moves(stored, rendered):
        print(line)
    print(f"wrote {EXPECTED}")
