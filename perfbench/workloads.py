"""Seeded inputs for the benchmark workloads.

One seed drives everything a workload feeds the program: the `--seed`
of every draw, the `atlas` triple list and the `green` field file.  The
program only ever sees the generated argv and files.  Each workload is a
fixed list of CLI invocations; one pass over the list is one iteration.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("classify", "energy-audit", "green", "atlas")
DEFAULT_SEED = 0

CLASSIFY_TRIPLES = ((6, 0.0, 4.0), (7, 0.0, 3.0), (6, -1.0, 3.5))
# Subcritical, critical and supercritical at n = 6, alpha = 0.
AUDIT_TRIPLES = ((6, 0.0, 4.0), (6, 0.0, 5.0), (6, 0.0, 5.5))
# Per-draw cost is bimodal (early blow-up or a full horizon), so classify
# needs the most draws for its total cost to settle across seeds.
CLASSIFY_DRAWS = 64
AUDIT_DRAWS = 16
TOL = "1e-10"
HORIZON = "-60"
# Two perturbed orbits per study keep the perturbed-case checks measured
# while integration stays a few percent of the workload, so `green` is
# the control for integrator changes.
GREEN_SAMPLES = 2
GREEN_NODES = 2048
FIELD_NODES = 65536
FIELD_R_MIN = 2.0**-20
ATLAS_SIZE = 768

# The fixed panel every run checks against its stored references, and
# from which the accuracy metrics are read.
PANEL_DRAWS = 4
PANEL_CLASSIFY_DRAWS = 8


@dataclass
class Invocation:
    """One CLI call: its argv, the table kind it prints and what to expect."""

    label: str
    argv: list[str]
    kind: str  # classification | energy-audit | green-study | atlas | field
    items: int
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    invocations: list[Invocation]
    item_name: str

    @property
    def items(self) -> int:
        return sum(inv.items for inv in self.invocations)


def _triple_args(triple) -> list[str]:
    n, alpha, p = triple
    return ["--n", str(n), "--alpha", repr(alpha), "--p", repr(p)]


def _tag(triple) -> str:
    n, alpha, p = triple
    return f"{n}_{alpha:g}_{p:g}"


def _rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"hardyhenon4-bench:{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _classify(triple, seed: int, draws: int) -> Invocation:
    argv = ["classify", *_triple_args(triple), "--samples", str(draws), "--seed", str(seed),
            "--tol", TOL, "--t-end", HORIZON, "--jobs", "2", "--format", "csv"]
    return Invocation(f"classify-{_tag(triple)}", argv, "classification", draws,
                      {"triple": triple, "samples": draws})


def _audit(triple, seed: int, draws: int) -> Invocation:
    argv = ["energy-audit", *_triple_args(triple), "--samples", str(draws), "--seed", str(seed),
            "--tol", TOL, "--t-end", HORIZON, "--format", "csv"]
    return Invocation(f"energy-audit-{_tag(triple)}", argv, "energy-audit", draws,
                      {"triple": triple, "samples": draws})


def _green(triple, seed: int, samples: int) -> Invocation:
    argv = ["green-check", *_triple_args(triple), "--samples", str(samples), "--seed", str(seed),
            "--grid-nodes", str(GREEN_NODES), "--format", "csv"]
    # Items are grid nodes of bilaplacian solves: a study solves on the
    # coarse grid and on the 4x finer one.
    return Invocation(f"green-{_tag(triple)}", argv, "green-study", 5 * GREEN_NODES,
                      {"triple": triple, "samples": samples})


def field_spec(seed: int) -> dict:
    """Parameters of the seeded power-law source f = c r^s on the unit ball."""
    rng = _rng("green-field", seed)
    return {
        "n": rng.randint(5, 8),
        "c": 0.5 + 1.5 * rng.random(),
        "s": -1.5 + 2.0 * rng.random(),
    }


def field_text(spec: dict, nodes: int = FIELD_NODES, r_min: float = FIELD_R_MIN) -> str:
    """A radial-field file: log-uniform ascending radii ending at r = 1."""
    t_min = math.log(r_min)
    h = -t_min / nodes
    lines = [f"# radial-field n={spec['n']} alpha=0 p=2"]
    for k in range(1, nodes + 1):
        r = 1.0 if k == nodes else math.exp(t_min + k * h)
        lines.append(f"{r!r},{spec['c'] * r ** spec['s']!r}")
    return "\n".join(lines) + "\n"


def navier_solution(spec: dict, r: float) -> float:
    """Closed form of Delta^2 v = c r^s, v(1) = Delta v(1) = 0, regular at 0."""
    n, c, s = spec["n"], spec["c"], spec["s"]
    return c / ((s + 2.0) * (s + n)) * (
        (1.0 - r * r) / (2.0 * n) - (1.0 - r ** (s + 4.0)) / ((s + 4.0) * (s + n + 2.0))
    )


def atlas_triples(seed: int, count: int = ATLAS_SIZE) -> list[tuple[int, float, float]]:
    """Triples with n in 5..12, alpha in [-3, 2] and p in every regime.

    p is placed relative to the Serrin and Hardy-Sobolev exponents: a
    quarter each below Serrin, subcritical, exactly critical and
    supercritical.  Below Serrin, p - 1 stays above 0.3 (serrin - 1), so
    B <= 27: for p much closer to 1, a0^{1/(p-1)} overflows inside
    fixed_points and the atlas command crashes (a known defect).
    """
    rng = _rng("atlas", seed)
    triples = []
    for k in range(count):
        n = rng.randint(5, 12)
        alpha = round(-3.0 + 5.0 * rng.random(), 6)
        serrin = (n + alpha) / (n - 4)
        critical = (n + 4 + 2 * alpha) / (n - 4)
        u = rng.random()
        regime = k % 4
        # n >= 5 and alpha > -4 give 1 < serrin < critical.
        if regime == 0:
            p = 1.0 + (serrin - 1.0) * (0.3 + 0.65 * u)
        elif regime == 1:
            p = serrin + (critical - serrin) * (0.05 + 0.9 * u)
        elif regime == 2:
            p = critical
        else:
            p = critical * (1.05 + u)
        triples.append((n, alpha, p))
    return triples


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """The workload's invocation list for this seed; writes its input files."""
    if workload == "classify":
        invs = [_classify(t, seed, CLASSIFY_DRAWS) for t in CLASSIFY_TRIPLES]
        return Plan(invs, "draws")
    if workload == "energy-audit":
        invs = [_audit(t, seed, AUDIT_DRAWS) for t in AUDIT_TRIPLES]
        return Plan(invs, "draws")
    if workload == "green":
        invs = [_green(t, seed, GREEN_SAMPLES) for t in CLASSIFY_TRIPLES]
        spec = field_spec(seed)
        path = workdir / f"field-{seed}.csv"
        path.write_text(field_text(spec))
        invs.append(Invocation("green-field", ["green-check", "--field", str(path), "--quiet"],
                               "field", FIELD_NODES, {"spec": spec, "path": path}))
        return Plan(invs, "grid nodes")
    if workload == "atlas":
        triples = atlas_triples(seed)
        grid = "; ".join(f"{n} {alpha!r} {p!r}" for n, alpha, p in triples)
        inv = Invocation("atlas", ["atlas", "--grid", grid, "--format", "csv"], "atlas",
                         len(triples), {"triples": triples})
        return Plan([inv], "triples")
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def panel_plan() -> Plan:
    """Fixed default-seed invocations checked on every run.

    Classifications pin the limit-class labels on every workload and
    seed; energy audits in all three regimes give the rate-law and
    monotonicity accuracy; green studies without perturbed orbits give
    the coarse representation residual.
    """
    invs = [_classify(t, DEFAULT_SEED, PANEL_CLASSIFY_DRAWS) for t in CLASSIFY_TRIPLES]
    invs += [_audit(t, DEFAULT_SEED, PANEL_DRAWS) for t in AUDIT_TRIPLES]
    invs += [_green(t, DEFAULT_SEED, 0) for t in CLASSIFY_TRIPLES]
    for inv in invs:
        inv.label = "panel-" + inv.label
    return Plan(invs, "invocations")
