"""Correctness gate for the tables the CLI prints.

Every invocation gets structural checks: exit status, table kind, schema,
row count, no blank result rows, and invariants that follow from the
mathematics (summary counts, class-dependent terminal values, the closed
form of the equilibrium and of the Navier solution for a power source).
Outputs of the default seed are also compared with stored reference
tables:

- labels, counts, notes and the (n, alpha, p) cells must match exactly;
- value cells must agree within REL_TOL relative (ABS_TOL absolute);
- accuracy diagnostics (rate mismatch, monotonicity violation, the two
  representation residuals) may not exceed DIAGNOSTIC_GROWTH times their
  reference, so a more accurate integrator or quadrature still passes;
- `ratio`, a quotient of a truncation-error residual by a round-off one,
  is checked only against its convergence floor RATIO_FLOOR.

Columns the program adds beyond the reference schema are ignored, so an
additive schema change does not fail the gate.
"""

from __future__ import annotations

import gzip
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import FIELD_NODES, navier_solution

REL_TOL = 1e-6
ABS_TOL = 1e-9
DIAGNOSTIC_GROWTH = 2.0
RATIO_FLOOR = 2.0
# Relative agreement of a solved field with the closed-form solution,
# in units of the solution's maximum.
FIELD_TOL = 1e-8
# Every FIELD_STRIDE-th node of the solved field goes into its reference.
FIELD_STRIDE = 256

EXACT_COLUMNS = frozenset({
    "n", "alpha", "p", "regime", "kind", "index", "limit_class", "count", "note",
    "case", "l1_converges", "weighted_diverges", "signs_ok",
})
DIAGNOSTIC_COLUMNS = frozenset({"max_violation", "rate_mismatch", "residual_coarse", "residual_fine"})
UNCOMPARED_COLUMNS = frozenset({"ratio"})

LIMIT_CLASSES = frozenset({"ConvergesToZero", "ConvergesToFixedPoint", "BlowUp", "Undetermined"})
MARGIN = 1e-3
BLOWUP_LEVEL = 1e6

REQUIRED_SCHEMA = {
    "classification": ("n", "alpha", "p", "regime", "kind", "index", "limit_class",
                       "terminal_w0", "window_variation", "e_min", "e_max", "count", "note"),
    "energy-audit": ("n", "alpha", "p", "regime", "index", "max_violation", "rate_mismatch",
                     "e_initial", "e_final", "note"),
    "green-study": ("n", "alpha", "p", "regime", "case", "index", "residual_coarse",
                    "residual_fine", "ratio", "tau", "neglap_min", "l1_converges",
                    "weighted_diverges", "l1_exponent", "weighted_exponent",
                    "sup0", "sup1", "sup2", "sup3", "note"),
    "atlas": ("n", "alpha", "p", "serrin", "hardy_sobolev", "sobolev", "upper_dichotomy",
              "B", "a0", "a1", "a2", "a3", "a4", "regime", "signs_ok", "w_star", "note"),
}


class TableError(ValueError):
    """Output that cannot be read as the expected table at all."""


@dataclass
class Table:
    kind: str
    config_digest: str
    schema: tuple[str, ...]
    rows: list[dict]


@dataclass
class Verdict:
    """Operations checked and failed for one invocation's output."""

    ops: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, label: str, msg: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 8:
            self.messages.append(f"{label}: {msg}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_table(text: str) -> Table:
    lines = text.splitlines()
    if len(lines) < 4:
        raise TableError(f"only {len(lines)} lines")
    if not lines[0].startswith("# result-table kind="):
        raise TableError(f"bad first header line {lines[0]!r}")
    kind = lines[0].split("=", 1)[1]
    if not lines[1].startswith("# config sha256="):
        raise TableError(f"bad config header line {lines[1]!r}")
    digest = lines[1].split("=", 1)[1]
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise TableError(f"config digest {digest!r} is not a sha256")
    if not lines[2].startswith("# generator "):
        raise TableError(f"bad generator header line {lines[2]!r}")
    schema = tuple(lines[3].split(","))
    rows = []
    for i, line in enumerate(lines[4:]):
        cells = line.split(",")
        if len(cells) != len(schema):
            raise TableError(f"row {i} has {len(cells)} cells for {len(schema)} columns")
        rows.append(dict(zip(schema, cells)))
    return Table(kind, digest, schema, rows)


def _num(cell: str) -> float | None:
    if cell == "":
        return None
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite cell {cell!r}")
    return x


def _finite(row: dict, *cols: str) -> bool:
    try:
        return all(_num(row[c]) is not None for c in cols)
    except ValueError:
        return False


def expected_regime(n: int, alpha: float, p: float) -> str:
    serrin = (n + alpha) / (n - 4)
    critical = (n + 4 + 2 * alpha) / (n - 4)
    if p <= serrin:
        return "OutOfRange"
    if abs(p - critical) < 1e-12:
        return "Critical"
    return "Subcritical" if p < critical else "Supercritical"


def closed_form_a0(n: int, alpha: float, p: float) -> tuple[float, float]:
    """(B, a0) with a0 in product form B(B+2)(n-2-B)(n-4-B)."""
    B = (4.0 + alpha) / (p - 1.0)
    return B, B * (B + 2.0) * (n - 2.0 - B) * (n - 4.0 - B)


def _equilibrium(n: int, alpha: float, p: float) -> float:
    _, a0 = closed_form_a0(n, alpha, p)
    return a0 ** (1.0 / (p - 1.0))


def _close(x: float, ref: float, rel: float, abs_tol: float) -> bool:
    return abs(x - ref) <= rel * max(abs(x), abs(ref)) + abs_tol


# ---------------------------------------------------------------- structure

def _check_rows_common(table: Table, kind: str, label: str, v: Verdict) -> bool:
    if table.kind != kind:
        v.fail(label, f"table kind {table.kind!r}, expected {kind!r}")
        return False
    missing = [c for c in REQUIRED_SCHEMA[kind] if c not in table.schema]
    if missing:
        v.fail(label, f"schema lacks {missing}")
        return False
    return True


def _check_classification(table: Table, expect: dict, label: str, v: Verdict) -> None:
    n, alpha, p = expect["triple"]
    samples = expect["samples"]
    draws = [r for r in table.rows if r["kind"] == "draw"]
    summaries = [r for r in table.rows if r["kind"] == "summary"]
    if len(draws) != samples or len(draws) + len(summaries) != len(table.rows):
        v.fail(label, f"{len(draws)} draw rows of {samples}, {len(table.rows)} rows in all")
    wstar = _equilibrium(n, alpha, p)
    regime = expected_regime(n, alpha, p)
    tally: dict[str, int] = {}
    for i, row in enumerate(draws):
        ok = (
            row["index"] == str(i)
            and row["regime"] == regime
            and row["note"] == ""
            and row["limit_class"] in LIMIT_CLASSES
            and _finite(row, "terminal_w0", "window_variation", "e_min", "e_max")
        )
        if ok:
            w = float(row["terminal_w0"])
            ok = float(row["e_min"]) <= float(row["e_max"]) and {
                "ConvergesToFixedPoint": abs(w - wstar) < MARGIN,
                "BlowUp": w >= BLOWUP_LEVEL * (1.0 - 1e-9),
                "ConvergesToZero": w < MARGIN,
                "Undetermined": True,
            }[row["limit_class"]]
        if not ok:
            v.fail(label, f"draw row {i} fails its invariants: {row}")
            continue
        tally[row["limit_class"]] = tally.get(row["limit_class"], 0) + 1
    counted = {r["limit_class"]: int(r["count"] or -1) for r in summaries}
    if counted != tally:
        v.fail(label, f"summary counts {counted} disagree with the draws {tally}")


def _check_audit(table: Table, expect: dict, label: str, v: Verdict) -> None:
    n, alpha, p = expect["triple"]
    if len(table.rows) != expect["samples"]:
        v.fail(label, f"{len(table.rows)} rows, expected {expect['samples']}")
    regime = expected_regime(n, alpha, p)
    for i, row in enumerate(table.rows):
        ok = (
            row["index"] == str(i)
            and row["regime"] == regime
            and row["note"] == ""
            and _finite(row, "max_violation", "rate_mismatch", "e_initial", "e_final")
            and float(row["max_violation"]) >= 0.0
            and float(row["rate_mismatch"]) >= 0.0
        )
        if not ok:
            v.fail(label, f"audit row {i} fails its invariants: {row}")


_SUPS = ("sup0", "sup1", "sup2", "sup3")


def _check_green(table: Table, expect: dict, label: str, v: Verdict) -> None:
    n, alpha, p = expect["triple"]
    samples = expect["samples"]
    cases = [r["case"] for r in table.rows]
    if cases != ["removable", "exact"] + ["perturbed"] * samples:
        v.fail(label, f"row cases {cases[:4]}... do not match the study layout")
        return
    regime = expected_regime(n, alpha, p)
    for i, row in enumerate(table.rows):
        if row["regime"] != regime:
            ok = False
        elif row["case"] == "removable":
            ok = (row["l1_converges"], row["weighted_diverges"]) == ("true", "false") and _finite(
                row, *_SUPS)
        elif row["case"] == "exact":
            ok = (
                row["note"] == ""
                and _finite(row, "residual_coarse", "residual_fine", "ratio", "tau", "neglap_min",
                            "l1_exponent", "weighted_exponent", *_SUPS)
                and float(row["residual_coarse"]) < 1e-8
                and float(row["ratio"]) >= RATIO_FLOOR
                and (row["l1_converges"], row["weighted_diverges"]) == ("true", "true")
            )
        else:
            ok = (
                row["note"] == ""
                and row["index"] == str(i - 2)
                and _finite(row, "tau", "neglap_min", *_SUPS)
                and float(row["neglap_min"]) > 0.0
            )
        if not ok:
            v.fail(label, f"{row['case']} row {i} fails its invariants: {row}")


def _check_atlas(table: Table, expect: dict, label: str, v: Verdict) -> None:
    triples = expect["triples"]
    if len(table.rows) != len(triples):
        v.fail(label, f"{len(table.rows)} rows for {len(triples)} triples")
        return
    for i, (row, (n, alpha, p)) in enumerate(zip(table.rows, triples)):
        try:
            same_point = (int(row["n"]), float(row["alpha"]), float(row["p"])) == (n, alpha, p)
            B, a0 = closed_form_a0(n, alpha, p)
            regime = expected_regime(n, alpha, p)
            ok = (
                same_point
                and row["note"] == ""
                and row["regime"] == regime
                and _finite(row, "B", "a0", "a1", "a2", "a3", "a4", "serrin", "hardy_sobolev")
                and _close(float(row["B"]), B, 1e-12, 0.0)
                and _close(float(row["a0"]), a0, 1e-9, 1e-9 * (1.0 + B**4))
                and row["signs_ok"] == ("" if regime == "OutOfRange" else "true")
            )
            if ok and float(row["a0"]) > 0.0:
                ok = _finite(row, "w_star") and _close(
                    float(row["w_star"]), _equilibrium(n, alpha, p), 1e-8, 0.0)
            elif ok:
                ok = row["w_star"] == ""
        except ValueError:
            ok = False
        if not ok:
            v.fail(label, f"atlas row {i} for {(n, alpha, p)} fails its invariants: {row}")


_STRUCTURE = {
    "classification": _check_classification,
    "energy-audit": _check_audit,
    "green-study": _check_green,
    "atlas": _check_atlas,
}


# ---------------------------------------------------------------- reference

def _compare_cell(col: str, out: str, ref: str) -> bool:
    if col in UNCOMPARED_COLUMNS:
        return True
    if col in EXACT_COLUMNS or "" in (out, ref):
        return out == ref
    x, r = float(out), float(ref)
    if col in DIAGNOSTIC_COLUMNS:
        return x <= DIAGNOSTIC_GROWTH * r + ABS_TOL
    return _close(x, r, REL_TOL, ABS_TOL)


def compare_with_reference(table: Table, ref: Table, label: str, v: Verdict) -> None:
    if table.kind != ref.kind:
        v.fail(label, f"kind {table.kind!r} differs from the reference {ref.kind!r}")
        return
    missing = [c for c in ref.schema if c not in table.schema]
    if missing or len(table.rows) != len(ref.rows):
        v.fail(label, f"reference has {len(ref.rows)} rows, output {len(table.rows)}; "
                      f"columns missing: {missing}", max(len(ref.rows), 1))
        return
    for i, (row, ref_row) in enumerate(zip(table.rows, ref.rows)):
        try:
            bad = [c for c in ref.schema if not _compare_cell(c, row[c], ref_row[c])]
        except ValueError as err:
            bad = [str(err)]
        if bad:
            v.fail(label, f"row {i} differs from the reference in {bad}")


# -------------------------------------------------------------------- field

def _field_lines(text: str) -> tuple[str, list[str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# radial-field "):
        raise TableError("missing '# radial-field' header")
    return lines[0], lines[1:]


def field_reference_text(text: str) -> str:
    head, body = _field_lines(text)
    kept = body[::FIELD_STRIDE]
    if (len(body) - 1) % FIELD_STRIDE:
        kept.append(body[-1])
    return "\n".join([head, *kept]) + "\n"


def _check_field(text: str, expect: dict, ref_text: str | None, label: str, v: Verdict) -> None:
    spec = expect["spec"]
    try:
        head, body = _field_lines(text)
        _, in_body = _field_lines(Path(expect["path"]).read_text())
        pairs = [ln.split(",") for ln in body]
        radii = [pr[0] for pr in pairs]
        values = [float(pr[1]) for pr in pairs]
    except (TableError, ValueError, IndexError) as err:
        v.fail(label, f"unreadable field output: {err}")
        return
    if not head.startswith(f"# radial-field n={spec['n']} ") or len(body) != FIELD_NODES:
        v.fail(label, f"header {head!r} with {len(body)} nodes")
        return
    if radii != [ln.split(",")[0] for ln in in_body]:
        v.fail(label, "output radii differ from the input radii")
        return
    exact = [navier_solution(spec, float(r)) for r in radii]
    scale = max(abs(e) for e in exact)
    worst = max(abs(x - e) for x, e in zip(values, exact)) / scale
    if not worst <= FIELD_TOL:
        v.fail(label, f"solution departs from the closed form by {worst:.3g} of its maximum")
    if ref_text is not None:
        mine = field_reference_text(text).splitlines()
        ref = ref_text.splitlines()
        ok = len(mine) == len(ref) and mine[0] == ref[0] and all(
            a.split(",")[0] == b.split(",")[0]
            and _close(float(a.split(",")[1]), float(b.split(",")[1]), REL_TOL, ABS_TOL * scale)
            for a, b in zip(mine[1:], ref[1:])
        )
        if not ok:
            v.fail(label, "solved field differs from the reference")


# -------------------------------------------------------------------- entry

def reference_path(ref_dir: Path, label: str) -> Path:
    return ref_dir / f"{label}.csv.gz"


def read_reference(ref_dir: Path, label: str) -> str | None:
    path = reference_path(ref_dir, label)
    if not path.is_file():
        return None
    return gzip.decompress(path.read_bytes()).decode()


def write_reference(ref_dir: Path, label: str, text: str) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    reference_path(ref_dir, label).write_bytes(gzip.compress(text.encode(), mtime=0))


def expected_ops(inv) -> int:
    """The invocation itself plus each result row it must print."""
    if inv.kind in ("classification", "energy-audit"):
        return 1 + inv.expect["samples"]
    if inv.kind == "green-study":
        return 1 + 2 + inv.expect["samples"]
    if inv.kind == "atlas":
        return 1 + len(inv.expect["triples"])
    return 2  # the field invocation and its solved field


def check_invocation(inv, rc: int, text: str, ref_dir: Path | None) -> Verdict:
    """Structural checks, plus the reference comparison when ref_dir is given."""
    v = Verdict(ops=expected_ops(inv))
    if rc != 0:
        v.fail(inv.label, f"exit status {rc}", v.ops)
        return v
    ref_text = read_reference(ref_dir, inv.label) if ref_dir is not None else None
    if ref_dir is not None and ref_text is None:
        v.fail(inv.label, f"no reference table in {ref_dir}")
    if inv.kind == "field":
        _check_field(text, inv.expect, ref_text, inv.label, v)
        return v
    try:
        table = parse_table(text)
    except (TableError, ValueError) as err:
        v.fail(inv.label, f"unreadable table: {err}", v.ops)
        return v
    if not _check_rows_common(table, inv.kind, inv.label, v):
        v.failed = v.ops
        return v
    _STRUCTURE[inv.kind](table, inv.expect, inv.label, v)
    if ref_text is not None:
        compare_with_reference(table, parse_table(ref_text), inv.label, v)
    v.failed = min(v.failed, v.ops)
    return v
