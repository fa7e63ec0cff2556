"""The benchmark's `--trace 1` must keep working: perfbench/tracer.py wraps
package functions by name and reads trajectory sizes off their results.

This installs its Tracer around tiny classify, energy-audit and
green-check runs, requires the traced tables to be byte-identical to the
untraced ones, and requires the integrator counts to be positive.
"""

import importlib.util
import sys
from pathlib import Path

from hardyhenon4 import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

ARGVS = (
    ["classify", "--n", "6", "--alpha", "0", "--p", "4", "--samples", "2", "--t-end", "-12"],
    ["energy-audit", "--n", "6", "--alpha", "0", "--p", "5", "--samples", "2", "--t-end", "-3"],
    ["green-check", "--n", "6", "--alpha", "0", "--p", "4", "--samples", "1",
     "--grid-nodes", "256"],
)


def _tables(capsys) -> list[str]:
    outs = []
    for argv in ARGVS:
        assert cli.main([*argv, "--format", "csv", "--quiet"]) == 0, argv
        outs.append(capsys.readouterr().out)
    return outs


def test_traced_runs_print_the_same_tables_and_count_steps(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    plain = _tables(capsys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _tables(capsys)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.counts["dynamics.integrate.steps"] > 0
    assert tracer.counts["dynamics.integrate.samples_out"] > 0
