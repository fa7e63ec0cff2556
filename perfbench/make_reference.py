"""Regenerate the stored reference tables from the current program.

    python3 perfbench/make_reference.py

Run from the repository root.  It runs the fixed panel and the default
seed of every workload once and stores their outputs (the solved field
decimated) gzipped under perfbench/reference/.  Do this only in a change
that alters the program's output on purpose, and say which values moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (caps BLAS threads before numpy loads)
import tables  # noqa: E402
import workloads  # noqa: E402
from hardyhenon4 import cli  # noqa: E402


def main() -> int:
    work_dir = BENCH_DIR / "out" / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    plans = [workloads.panel_plan()] + [
        workloads.build_plan(w, workloads.DEFAULT_SEED, work_dir) for w in workloads.WORKLOADS
    ]
    for plan in plans:
        for inv in plan.invocations:
            rc, text, err = run.invoke(cli, inv.argv)
            if rc != 0:
                print(f"{inv.label}: exit status {rc}: {err}", file=sys.stderr)
                return 1
            verdict = tables.check_invocation(inv, rc, text, None)
            if verdict.failed:
                print("\n".join(verdict.messages), file=sys.stderr)
                return 1
            if inv.kind == "field":
                text = tables.field_reference_text(text)
                inv.expect["path"].unlink()
            tables.write_reference(run.REFERENCE_DIR, inv.label, text)
            print(f"wrote {tables.reference_path(run.REFERENCE_DIR, inv.label)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
