"""The benchmark's own inputs must keep working with the package.

perfbench/workloads.py builds every invocation the benchmark makes.  A
flag dropped from a command would fail those runs, so this builds each
workload's plan and the reference panel and parses every argv.  It also
writes the 65,536-row field file of the `green` workload and reads it back.
"""

import tracemalloc

import numpy as np

from hardyhenon4 import _dp5
from hardyhenon4.cli import parse_invocation
from hardyhenon4.green import RadialField, bilaplacian_solve_radial, poisson_solve_radial

def test_every_benchmark_argv_parses(tmp_path, workloads):
    plans = [workloads.build_plan(name, 1, tmp_path) for name in workloads.WORKLOADS]
    plans.append(workloads.panel_plan())
    for plan in plans:
        assert plan.invocations
        for inv in plan.invocations:
            assert parse_invocation(inv.argv).command == inv.argv[0], inv.label


def test_benchmark_field_file_loads_exactly_and_lean(tmp_path, workloads):
    text = workloads.field_text(workloads.field_spec(1))
    path = tmp_path / "field.csv"
    path.write_text(text)
    tracemalloc.start()
    try:
        field = RadialField.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = np.array([[float(c) for c in row.split(",")] for row in text.splitlines()[1:]])
    assert field.grid.nodes.tobytes() == cells[:, 0].tobytes()
    assert field.values.tobytes() == cells[:, 1].tobytes()
    # Two 65,536-double columns are 1 MB and the file 2.8 MB: the bound
    # allows the file's bytes once, not its decoded text beside them or
    # one Python object per cell.
    assert peak < 6.5e6, peak


def test_benchmark_field_file_dumps_exactly_and_lean(tmp_path, workloads, kernel_paths):
    text = workloads.field_text(workloads.field_spec(1))
    path = tmp_path / "field.csv"
    path.write_text(text)
    field = RadialField.load(path)
    rows = field.grid.count
    peaks = {}
    for kernels in kernel_paths():
        # Build the library and the writer's multipliers outside the trace.
        assert field.dumps() == text, kernels
        tracemalloc.start()
        try:
            out = field.dumps()
            peaks[kernels] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == text, kernels
    # The compiled writer holds its byte buffer (at most 50 bytes a row)
    # and the output str, and copies no column: load returns them
    # C-contiguous.  The Python twin also holds one str per row.
    bound = _dp5.ROW_BYTES * rows + len(text) + 2**16
    if "compiled" in peaks:
        assert peaks["compiled"] < bound, peaks
    assert peaks["python"] > bound, peaks


def test_benchmark_field_solves_as_two_poisson_solves(tmp_path, workloads):
    # The `green` workload's seed-23 field: bilaplacian_solve_radial shares
    # its weights between the passes and keeps the two solves' bytes.
    spec = workloads.field_spec(23)
    path = tmp_path / "field.csv"
    path.write_text(workloads.field_text(spec))
    field, n = RadialField.load(path), spec["n"]
    want = poisson_solve_radial(poisson_solve_radial(field, n), n)
    assert bilaplacian_solve_radial(field, n).values.tobytes() == want.values.tobytes()
