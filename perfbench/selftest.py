"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root (about a minute).  It checks that

1. the metric names run.py prints equal those in BENCHMARK.json, in both
   trace modes, and the run is correct;
2. a deliberately corrupted reference table is reported as a failure
   (a limit class, a label, a value cell and an accuracy diagnostic, one
   at a time),
   while the intact reference passes;
3. traced and untraced invocations print byte-identical tables, and the
   per-layer self times of a traced invocation add up to its wall time.

Exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (caps BLAS threads before numpy loads)
import tables  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hardyhenon4 import cli  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"selftest: {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "atlas", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = list(result["metrics"])
        declared = [m["name"] for m in spec[key]]
        check(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
              f"trace {trace} run exits 0 and is correct")
        check(printed == declared, f"trace {trace} metric names equal BENCHMARK.json {key}")
        units = {m["name"]: m["unit"] for m in spec[key]}
        check(all(result["metrics"][k]["unit"] == units.get(k) for k in printed),
              f"trace {trace} metric units equal BENCHMARK.json {key}")


def _rewrite(ref_dir: Path, label: str, edit) -> None:
    path = tables.reference_path(ref_dir, label)
    text = gzip.decompress(path.read_bytes()).decode()
    lines = text.splitlines()
    header, body = lines[:4], [dict(zip(lines[3].split(","), ln.split(","))) for ln in lines[4:]]
    edit(body[0])
    rows = [",".join(row[c] for c in lines[3].split(",")) for row in body]
    path.write_bytes(gzip.compress(("\n".join(header + rows) + "\n").encode(), mtime=0))


def corrupted_reference() -> None:
    panel = {inv.label: inv for inv in workloads.panel_plan().invocations}
    classify = panel["panel-classify-6_0_4"]
    audit, green = panel["panel-energy-audit-6_0_4"], panel["panel-green-6_0_4"]
    outputs = {inv.label: run.invoke(cli, inv.argv) for inv in (classify, audit, green)}

    def verdict(inv, ref_dir):
        rc, text, _ = outputs[inv.label]
        return tables.check_invocation(inv, rc, text, ref_dir)

    check(all(verdict(inv, run.REFERENCE_DIR).failed == 0 for inv in (classify, audit, green)),
          "intact reference passes")
    flip = {"BlowUp": "ConvergesToZero", "ConvergesToZero": "BlowUp"}
    cases = (
        (classify, "limit class", lambda row: row.update(
            limit_class=flip.get(row["limit_class"], "BlowUp"))),
        (green, "label", lambda row: row.update(l1_converges="false")),
        (audit, "value cell", lambda row: row.update(e_initial=repr(float(row["e_initial"]) * 1.001))),
        (audit, "accuracy diagnostic", lambda row: row.update(
            rate_mismatch=repr(float(row["rate_mismatch"]) / 10.0))),
    )
    scratch = BENCH_DIR / "out" / "selftest-reference"
    for inv, what, edit in cases:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.REFERENCE_DIR, scratch)
        _rewrite(scratch, inv.label, edit)
        v = verdict(inv, scratch)
        check(v.failed > 0 and v.ops > 0, f"corrupted {what} in {inv.label} is reported")
    shutil.rmtree(scratch, ignore_errors=True)


def traced_tables_identical() -> None:
    work_dir = BENCH_DIR / "out" / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        plan = workloads.build_plan(workload, 1, work_dir)
        invs = plan.invocations if workload == "green" else plan.invocations[:1]
        for inv in invs:
            plain = run.invoke(cli, inv.argv)
            tracer = tracing.Tracer()
            tracer.install()
            t0 = time.perf_counter()
            try:
                traced = run.invoke(cli, inv.argv)
            finally:
                wall = time.perf_counter() - t0
                tracer.uninstall()
            check(plain[0] == 0 and plain[:2] == traced[:2],
                  f"{inv.label}: traced and untraced tables are byte-identical")
            window = tracer.window(0, tracer.mark())
            self_total = sum(window[f"{nm}.self_s"] for nm in tracing.NAMES)
            harness = wall - window["roots_s"]
            check(abs(self_total - window["roots_s"]) < 1e-6 and 0.0 <= harness < 0.05 * wall,
                  f"{inv.label}: self times {self_total:.4f} s + harness {harness:.4f} s "
                  f"account for the traced wall {wall:.4f} s")
            if "path" in inv.expect:
                inv.expect["path"].unlink(missing_ok=True)


def main() -> int:
    metric_names()
    corrupted_reference()
    traced_tables_identical()
    if failures:
        print(f"selftest: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
