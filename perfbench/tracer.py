"""Outside-in tracer: wraps public functions of the package from outside.

Each wrapped call records a span (name, start, end, parent span, CLI
invocation id) into flat in-memory arrays; nothing is written until the
run ends.  Functions are patched in every module that binds them,
because `experiments`, `cli`, `green` and `energy` import them by name;
methods are patched on their class.  Self time of a span is its duration
minus the durations of its direct children, so the self times of one
invocation's spans add up to the duration of its `cli.main` span.

A few wrappers also read counts off arguments and results (accepted
steps and termination of a trajectory, grid nodes, bytes of field text).
Rejected steps and right-hand-side evaluations are not visible from here.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "hardyhenon4"

# (module, attribute path, span name)
TARGETS = (
    ("params", "coefficients", "params.coefficients"),
    ("params", "classify_regime", "params.classify_regime"),
    ("params", "critical_exponents", "params.critical_exponents"),
    ("transform", "neg_laplacian_radial", "transform.neg_laplacian_radial"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "fixed_points", "dynamics.fixed_points"),
    ("dynamics", "classify_limit", "dynamics.classify_limit"),
    ("dynamics", "linearize", "dynamics.linearize"),
    ("dynamics", "Trajectory.sample", "dynamics.Trajectory.sample"),
    ("energy", "audit_monotonicity", "energy.audit_monotonicity"),
    ("energy", "energy", "energy.energy"),
    ("green", "poisson_solve_radial", "green.poisson_solve_radial"),
    ("green", "representation_check", "green.representation_check"),
    ("green", "superharmonic_check", "green.superharmonic_check"),
    ("green", "integrability_report", "green.integrability_report"),
    ("green", "singularity_bound_check", "green.singularity_bound_check"),
    ("green", "RadialField.load", "green.RadialField.load"),
    ("green", "RadialField.dumps", "green.RadialField.dumps"),
    ("experiments", "run_experiment", "experiments.runner"),
    ("experiments", "ResultTable.to_csv", "experiments.render"),
    ("cli", "main", "cli.main"),
)
NAMES = tuple(t[2] for t in TARGETS)
TERMINATIONS = ("BlowUp", "NonPositive", "ReachedEnd")


class Tracer:
    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.invocation = array("q")
        self._stack = [-1]
        self._inv = -1
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {}

    # ------------------------------------------------------------ recording

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "dynamics.integrate":
            self._count("dynamics.integrate.steps", len(result.segments))
            self._count("dynamics.integrate.samples_out", len(result.times))
            self._count(f"dynamics.integrate.end.{result.termination}")
        elif name == "green.poisson_solve_radial":
            self._count("green.poisson_solve_radial.nodes", args[0].grid.count)
        elif name == "green.RadialField.load":
            # load is a classmethod: args are (cls, path).
            self._count("green.RadialField.load.bytes", os.path.getsize(args[1]))
        elif name == "green.RadialField.dumps":
            self._count("green.RadialField.dumps.bytes", len(result))

    def _wrap(self, fn, name: str):
        nid = self._ids[name]
        observed = name in (
            "dynamics.integrate", "green.poisson_solve_radial",
            "green.RadialField.load", "green.RadialField.dumps",
        )
        top = name == "cli.main"
        perf = time.perf_counter
        names, starts, ends, parents, invs = (
            self.name, self.start, self.end, self.parent, self.invocation)
        stack = self._stack

        def traced(*args, **kwargs):
            if top and len(stack) == 1:
                self._inv += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            invs.append(self._inv)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf()
                stack.pop()
                self._count(name + ".errors")
                raise
            ends[idx] = perf()
            stack.pop()
            if observed:
                self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Patch every binding of every target in the loaded package modules."""
        if self._patches:
            return
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if name not in self._wrappers:
                    if isinstance(raw, classmethod):
                        self._wrappers[name] = classmethod(self._wrap(raw.__func__, name))
                    else:
                        self._wrappers[name] = self._wrap(raw, name)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, self._wrappers[name])
                continue
            original = getattr(home, attr)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, self._wrappers[name])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ summaries

    def mark(self) -> int:
        return len(self.start)

    def window(self, lo: int, hi: int, scale: float = 1.0) -> dict:
        """Per-name calls and self seconds of the spans in [lo, hi).

        Span durations are multiplied by `scale`, so that a caller can
        express them in the same seconds as its wall times.
        """
        name = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (end - start) * scale
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(name, minlength=len(NAMES))
        selfs = np.bincount(name, weights=self_s, minlength=len(NAMES))
        out = {}
        for i, nm in enumerate(NAMES):
            out[f"{nm}.calls"] = float(calls[i])
            out[f"{nm}.self_s"] = float(selfs[i])
        out["roots_s"] = float(dur[~nested].sum())
        integ = name == self._ids["dynamics.integrate"]
        out["integrate_ms"] = list(dur[integ] * 1e3)
        out["spans"] = float(hi - lo)
        return out

    def dump(self, path: Path) -> None:
        """Write the recorded spans to a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            invocation=np.frombuffer(self.invocation, dtype=np.int64),
        )


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def merge_windows(windows: list[dict]) -> dict:
    """One window from several: sums of the numbers, lists joined."""
    out: dict = {}
    for w in windows:
        for key, value in w.items():
            out[key] = out.get(key, [] if isinstance(value, list) else 0.0) + value
    return out


def per_layer_metrics(windows: list[dict], counts: dict, traced_walls: list[float],
                      plain_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-iteration layer metrics from the traced iterations' span windows.

    Counts are per iteration (inputs are identical across iterations);
    times are medians across traced iterations.  Each window's times and
    its `elapsed_s`, the whole traced iteration its spans cover, are in
    the same seconds as traced_walls and plain_walls.
    """
    k = len(windows)

    def med(key):
        return _median([w[key] for w in windows])

    m: dict[str, tuple[float, str]] = {}
    for nm in NAMES:
        m[f"{nm}.calls"] = (med(f"{nm}.calls"), "count")
        m[f"{nm}.self_s"] = (med(f"{nm}.self_s"), "s")

    def per_iter(key):
        return counts.get(key, 0) / k

    steps = per_iter("dynamics.integrate.steps")
    ms = sorted(x for w in windows for x in w["integrate_ms"])
    pct = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) >= 2 else [0.0] * 9
    m["dynamics.integrate.steps"] = (steps, "count")
    m["dynamics.integrate.us_per_step"] = (
        med("dynamics.integrate.self_s") / steps * 1e6 if steps else 0.0, "us")
    m["dynamics.integrate.call_ms.p50"] = (_median(ms), "ms")
    m["dynamics.integrate.call_ms.p90"] = (pct[8], "ms")
    m["dynamics.integrate.samples_out"] = (per_iter("dynamics.integrate.samples_out"), "count")
    for end in TERMINATIONS:
        m[f"dynamics.integrate.end.{end}"] = (per_iter(f"dynamics.integrate.end.{end}"), "count")
    m["dynamics.integrate.errors"] = (per_iter("dynamics.integrate.errors"), "count")

    def per_call(name, scale, unit):
        c = med(f"{name}.calls")
        return (med(f"{name}.self_s") / c * scale if c else 0.0, unit)

    m["dynamics.Trajectory.sample.ns_per_call"] = per_call("dynamics.Trajectory.sample", 1e9, "ns")
    m["dynamics.fixed_points.us_per_call"] = per_call("dynamics.fixed_points", 1e6, "us")
    nodes = per_iter("green.poisson_solve_radial.nodes")
    m["green.poisson_solve_radial.nodes"] = (nodes, "count")
    m["green.poisson_solve_radial.ns_per_node"] = (
        med("green.poisson_solve_radial.self_s") / nodes * 1e9 if nodes else 0.0, "ns")
    m["green.RadialField.load.bytes"] = (per_iter("green.RadialField.load.bytes"), "bytes")
    m["green.RadialField.dumps.bytes"] = (per_iter("green.RadialField.dumps.bytes"), "bytes")

    m["harness.self_s"] = (_median([w["elapsed_s"] - w["roots_s"] for w in windows]), "s")
    m["trace.overhead_s"] = (_median(traced_walls) - _median(plain_walls), "s")
    return m
