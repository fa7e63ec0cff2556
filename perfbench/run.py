"""hardyhenon4 benchmark: drives the CLI entry point in-process.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from `src/`.
Each run is one fresh process and a closed loop with one client: the
workload's CLI invocations run one after another, and one pass over them
is an iteration.  Iterations repeat for `--seconds`; timings are medians
over iterations.  Before timing, every run solves a fixed panel of
default-seed invocations, checks it against the stored reference tables
and reads the accuracy metrics off it.  Outputs of the timed iterations
are checked structurally (and against the references for the default
seed), and every later iteration must print byte-identical tables.

Times are reported in reference-speed seconds.  The shared machine's
speed drifts by about a third over minutes, so while the workload runs, a
timer signal times a short fixed pure-Python loop every 50 ms.  Each
invocation's time is scaled by CHUNK_REFERENCE_S over the median CPU time
of the loops sampled while it ran.  The raw medians go into the
provenance record.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones, in reference-speed seconds like the end-to-end times;
`trace.overhead_s` is the difference of the two medians.
The last stdout line is the JSON result; a provenance record and the
table digests go to `perfbench/out/`.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# Cap BLAS threads before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tables
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_REPEATS = 7
MIN_ITERATIONS = 2
# Reported times are reference-speed seconds: measured seconds scaled by
# CHUNK_REFERENCE_S over the median CPU time of nearby calibration chunks.
CHUNK_LOOPS = 250
CHUNK_REFERENCE_S = 0.001
SAMPLE_PERIOD_S = 0.05
SETUP_CHUNKS = 20


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def calibration_chunk(loops: int = CHUNK_LOOPS) -> float:
    """CPU seconds of a fixed pure-Python float loop that uses no package code.

    The loop mixes tuple building, generator expressions and math calls,
    as the integrator does, so its speed follows the machine's.
    """
    c0 = time.process_time()
    y = (1.0, 0.1, 0.01, 0.001)
    acc = 0.0
    for _ in range(loops):
        k = tuple(y[j] * 0.5 + 0.1 * math.exp(0.3 * math.log(1.0 + abs(y[j]))) for j in range(4))
        y = (k[1] * 0.1, k[2] * 0.1, k[3] * 0.1, k[0] * 0.1 + 1.0)
        acc += sum(a * b for a, b in zip(y, k))
    if not math.isfinite(acc):
        raise ArithmeticError("calibration loop diverged")
    return time.process_time() - c0


class SpeedSampler:
    """Runs a calibration chunk on a wall-clock timer signal.

    The samples fall at uniform times during the workload, so the median
    of those taken during one invocation is the machine speed it saw.  The
    handler's own wall and CPU time are summed so that callers can take
    them out of their timings.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0

    def _handler(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(calibration_chunk())
        self.wall_spent += time.perf_counter() - w0
        self.cpu_spent += time.process_time() - c0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Wall seconds for fresh interpreters to import hardyhenon4.cli.

    Returns the raw times and the times scaled to reference speed by
    calibration chunks run just before and just after each start.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    cmd = [sys.executable, "-c", "import hardyhenon4.cli"]
    times, scaled = [], []
    for k in range(SETUP_REPEATS + 1):  # the first one also writes the bytecode cache
        chunks = [calibration_chunk() for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        chunks += [calibration_chunk() for _ in range(SETUP_CHUNKS)]
        if k:
            times.append(elapsed)
            scaled.append(elapsed * CHUNK_REFERENCE_S / statistics.median(chunks))
    return times, scaled


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: (exit status, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def _cpu() -> float:
    """CPU seconds of this process and its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def run_iteration(cli, plan, sampler: SpeedSampler, tracer=None) -> dict:
    """Time one pass over the plan, invocation by invocation.

    `wall` and `cpu` leave out the sampler's own time; `wall_ref` and
    `cpu_ref` scale each invocation by the calibration chunks sampled
    while it ran.  With a tracer installed, `window` holds the pass's
    spans in the seconds of `wall_ref`: the sampler runs inside whatever
    span it interrupts, so each invocation's spans are first shrunk by
    its share of sampler time, then scaled like its wall time.
    """
    it = {"results": [], "wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0}
    windows = []
    for inv in plan.invocations:
        n0, ws, cs = len(sampler.samples), sampler.wall_spent, sampler.cpu_spent
        lo = tracer.mark() if tracer is not None else 0
        w0, c0 = time.perf_counter(), _cpu()
        it["results"].append(invoke(cli, inv.argv))
        elapsed = time.perf_counter() - w0
        wall = elapsed - (sampler.wall_spent - ws)
        cpu = _cpu() - c0 - (sampler.cpu_spent - cs)
        # An invocation shorter than the sampling period borrows recent chunks.
        chunks = sampler.samples[n0:] or sampler.samples[-20:] or [calibration_chunk()]
        scale = CHUNK_REFERENCE_S / statistics.median(chunks)
        it["wall"] += wall
        it["cpu"] += cpu
        it["wall_ref"] += wall * scale
        it["cpu_ref"] += cpu * scale
        if tracer is not None:
            span_scale = scale * wall / elapsed
            window = tracer.window(lo, tracer.mark(), span_scale)
            window["elapsed_s"] = elapsed * span_scale
            windows.append(window)
    if tracer is not None:
        it["window"] = tracing.merge_windows(windows)
    return it


def _provenance(root: Path, args) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    src = hashlib.sha256()
    for path in sorted((root / "src" / "hardyhenon4").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas_threads": NPROC,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


class Tally:
    """Operations attempted and failed, with the first check messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, verdict: tables.Verdict) -> None:
        self.attempted += verdict.ops
        self.failed += verdict.failed
        self.messages.extend(verdict.messages)


def check_repeat(plan, digests: list[str], it: dict, k: int, tally: Tally) -> None:
    """A later iteration must print the first iteration's bytes."""
    for inv, digest, (rc, text, _) in zip(plan.invocations, digests, it.pop("results")):
        verdict = tables.Verdict(ops=tables.expected_ops(inv))
        if rc != 0 or tables.sha256(text) != digest:
            what = "traced" if it["traced"] else "repeated"
            verdict.fail(inv.label, f"{what} iteration {k} printed different bytes "
                                    f"(exit status {rc})", verdict.ops)
        tally.add(verdict)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hardyhenon4" / "cli.py").is_file():
        print(f"run.py: no src/hardyhenon4 under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = BENCH_DIR / "out"
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    setup, setup_ref = measure_setup(root) if args.trace == 0 else ([], [])
    from hardyhenon4 import cli

    # The fixed panel warms the interpreter, is checked against the
    # references on every run and yields the accuracy metrics.
    tally = Tally()
    panel = workloads.panel_plan()
    panel_tables = {}
    for inv in panel.invocations:
        rc, text, _ = invoke(cli, inv.argv)
        tally.add(tables.check_invocation(inv, rc, text, REFERENCE_DIR))
        if rc == 0:
            panel_tables[inv.label] = text

    plan = workloads.build_plan(args.workload, args.seed, work_dir)
    ref_dir = REFERENCE_DIR if args.seed == workloads.DEFAULT_SEED else None
    tracer = tracing.Tracer() if args.trace else None
    iterations: list[dict] = []
    digests: list[str] = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            traced = tracer is not None and len(iterations) % 2 == 1
            if traced:
                tracer.install()
            try:
                it = run_iteration(cli, plan, sampler, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            it["traced"] = traced
            # Later iterations must repeat the first one's bytes; the first
            # one's tables are checked after the peak memory is read.
            if iterations:
                check_repeat(plan, digests, it, len(iterations), tally)
            else:
                digests = [tables.sha256(text) for _, text, _ in it["results"]]
            iterations.append(it)
            elapsed = time.perf_counter() - start
            typical = statistics.median(i["wall"] for i in iterations)
            if len(iterations) >= MIN_ITERATIONS and elapsed + typical > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for inv, (rc, text, err) in zip(plan.invocations, iterations[0].pop("results")):
        verdict = tables.check_invocation(inv, rc, text, ref_dir)
        if rc != 0:
            verdict.messages.append(f"{inv.label}: stderr: {err.strip()[-400:]}")
        tally.add(verdict)
    for inv in plan.invocations:
        if "path" in inv.expect:
            inv.expect["path"].unlink(missing_ok=True)

    plain = [i for i in iterations if not i["traced"]]
    traced_its = [i for i in iterations if i["traced"]]
    walls = [i["wall"] for i in plain]
    raw = {"wall_s": statistics.median(walls),
           "cpu_s": statistics.median(i["cpu"] for i in plain),
           "chunk_s": statistics.median(sampler.samples)}
    if tracer is None:
        raw["setup_s"] = statistics.median(setup)
        wall = statistics.median(i["wall_ref"] for i in plain)
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(i["cpu_ref"] for i in plain), "s"),
            "items_per_s": (plan.items / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            **accuracy_metrics(panel, panel_tables),
        }
    else:
        windows = [i["window"] for i in traced_its]
        metrics = tracing.per_layer_metrics(
            windows, tracer.counts, [i["wall_ref"] for i in traced_its],
            [i["wall_ref"] for i in plain])
        traced_info = {
            "spans_per_iteration": statistics.median(w["spans"] for w in windows),
            "integrate_call_samples": sum(len(w["integrate_ms"]) for w in windows),
        }
        tracer.dump(out_dir / f"{args.workload}-spans.npz")

    provenance = _provenance(root, args)
    provenance.update({
        "iterations": len(plain),
        "traced_iterations": len(traced_its),
        "median_samples": {"wall_s": len(walls), "cpu_s": len(walls), "setup_s": len(setup),
                           "chunk_s": len(sampler.samples)},
        "items_per_iteration": plan.items,
        "item": plan.item_name,
        "raw_medians": raw,
        "chunk_reference_s": CHUNK_REFERENCE_S,
        "iteration_walls_s": [i["wall"] for i in iterations],
        "table_sha256": dict(zip((inv.label for inv in plan.invocations), digests)),
        "reference_compared": ref_dir is not None,
    })
    if tracer is not None:
        provenance["trace"] = traced_info
    for msg in tally.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": result,
                    "messages": tally.messages[:50]}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"iterations {len(plain)} untraced, {len(traced_its)} traced; "
          f"fail_frac {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def accuracy_metrics(panel, panel_tables: dict) -> dict[str, tuple[float, str]]:
    """Worst accuracy diagnostics of the fixed panel, per energy regime."""
    by_regime = {"Subcritical": "sub", "Critical": "crit", "Supercritical": "super"}
    rate = dict.fromkeys(by_regime.values(), 0.0)
    violation = residual = 0.0
    for inv in panel.invocations:
        text = panel_tables.get(inv.label)
        if text is None:
            continue
        rows = tables.parse_table(text).rows
        if inv.kind == "energy-audit":
            key = by_regime[rows[0]["regime"]]
            rate[key] = max(float(r["rate_mismatch"]) for r in rows)
            violation = max([violation] + [float(r["max_violation"]) for r in rows])
        elif inv.kind == "green-study":
            residual = max([residual] + [float(r["residual_coarse"])
                                         for r in rows if r["case"] == "exact"])
    out = {f"rate_mismatch.{k}": (v, "1") for k, v in rate.items()}
    out["max_violation"] = (violation, "1")
    out["residual_coarse.max"] = (residual, "1")
    return out


if __name__ == "__main__":
    raise SystemExit(main())
