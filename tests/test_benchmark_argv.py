"""The benchmark drives the CLI with generated argv; they must keep parsing.

perfbench/workloads.py builds every invocation the benchmark makes.  A
flag dropped from a command would fail those runs, so this builds each
workload's plan and the reference panel and parses every argv.
"""

import importlib.util
import sys
from pathlib import Path

from hardyhenon4.cli import parse_invocation

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_benchmark_argv_parses(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while the body runs.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    plans = [workloads.build_plan(name, 1, tmp_path) for name in workloads.WORKLOADS]
    plans.append(workloads.panel_plan())
    for plan in plans:
        assert plan.invocations
        for inv in plan.invocations:
            assert parse_invocation(inv.argv).command == inv.argv[0], inv.label
