"""Reproducible experiment runners producing deterministic result tables.

Each runner maps an ExperimentConfig to a ResultTable whose serialization
is byte-identical for identical configs: pseudo-random initial conditions
come from a counter-based generator keyed by (seed, row key), so a row's
draw does not depend on execution order, and every float cell is printed
as its round-trip repr: a column of floats and blanks in one call to the
kernel file's row writer, any other column cell by cell through _fmt.
Sweep rows never raise; per-row failures are recorded in the note
column.  A trajectory table is one orbit, so its failure raises.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from . import __version__, _dp5
from .params import (
    CRITICAL,
    OUT_OF_RANGE,
    SUBCRITICAL,
    SUPERCRITICAL,
    CoefficientSet,
    ProblemParams,
    classify_regime,
    coefficients,
    critical_exponents,
    in_dichotomy_window,
)
from .transform import OdeState
from .dynamics import (
    DEFAULT_MARGIN,
    DEFAULT_WINDOW,
    TOL_MAX,
    TOL_MIN,
    IntegrationUnderflow,
    Trajectory,
    _integrate_each,
    _wide_margin,
    classify_limit,
    equilibrium_trajectory,
    fixed_points,
    integrate,
    linearize,
    mode_trajectory,
)
from .energy import audit_monotonicity, energy
from .green import (
    MIN_NODE_COUNT,
    integrability_report,
    representation_check,
    singularity_bound_check,
    superharmonic_check,
)

ATLAS = "atlas"
CLASSIFICATION = "classification"
ENERGY_AUDIT = "energy-audit"
GREEN_STUDY = "green-study"
TRAJECTORY = "trajectory"
_KINDS = (ATLAS, CLASSIFICATION, ENERGY_AUDIT, GREEN_STUDY, TRAJECTORY)

DEFAULT_BOX = 1e-3
DEFAULT_HORIZON = -60.0

# Green-study perturbed orbits stop here: quadratic coupling feeds the
# one backward-growing mode, whose amplification past t ~ -4 swamps any
# draw bigger than roughly 1e-5 (use a small config.box for this kind).
_PERTURBED_HORIZON = -4.0
_AUDIT_ESCAPE_FACTOR = 4.0

# The grid pass's regime codes index _REGIMES; its sign codes are -1, 0
# and 1 for classify_regime's tags "-", "0" and "+".
_REGIMES = (OUT_OF_RANGE, SUBCRITICAL, CRITICAL, SUPERCRITICAL)
_SIGN_CODES = {"-": -1, "0": 0, "+": 1}
# The sign codes of (a0, a1, a3) each regime expects, by regime code; none
# for OutOfRange.
_EXPECTED_SIGNS = (None, [1, 1, -1], [1, 0, 0], [1, -1, 1])
_REJECTED = (_dp5.ROW_INVALID, _dp5.ROW_OVERFLOW)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a runner needs; hashable into the table provenance."""

    kind: str
    param_grid: tuple[tuple[float, float, float], ...] = ()
    tol: float = 1e-10
    samples: int = 64
    seed: int = 0
    margin: float = DEFAULT_MARGIN
    box: float = DEFAULT_BOX
    horizon: float = DEFAULT_HORIZON
    grid_nodes: int = 2048

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {_KINDS}")
        # Each entry, a triple or a ProblemParams, as (n, float alpha, float
        # p), n an int where it is integral: an int n as given, so one past
        # every double stays exact.
        grid = []
        for item in self.param_grid:
            if isinstance(item, ProblemParams):
                item = (item.n, item.alpha, item.p)
            if len(item) != 3:
                raise ValueError(f"param grid entries are (n, alpha, p) triples, got {item!r}")
            n, alpha, p = item
            if type(n) is not int:
                n = int(n) if float(n).is_integer() else float(n)
            grid.append((n, float(alpha), float(p)))
        object.__setattr__(self, "param_grid", tuple(grid))
        if not TOL_MIN <= self.tol <= TOL_MAX:
            raise ValueError(f"tol={self.tol!r} outside [{TOL_MIN}, {TOL_MAX}]")
        for name in ("samples", "seed", "grid_nodes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.samples < 0:
            raise ValueError(f"samples must be a nonnegative integer, got {self.samples!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed!r}")
        for name in ("margin", "box"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"need {name} > 0, got {getattr(self, name)!r}")
        if not -math.inf < self.horizon < 0.0:
            raise ValueError(
                f"horizon must be finite and negative (backward time), got {self.horizon!r}"
            )
        if self.grid_nodes < MIN_NODE_COUNT:
            raise ValueError(f"grid_nodes must be >= {MIN_NODE_COUNT}, got {self.grid_nodes!r}")

    def canonical_text(self) -> str:
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return "\n".join(parts) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _fmt(cell) -> str:
    """The bytes of one cell."""
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(float(cell))  # plain float repr even for numpy scalars
    if isinstance(cell, str):
        return cell.replace(",", ";").replace("\n", " ")
    return str(cell)


@dataclass(frozen=True)
class ResultTable:
    kind: str
    schema: tuple[str, ...]
    rows: tuple[tuple, ...]
    config_digest: str
    diagnostic: str = ""  # one line on how the run went, for stderr; never serialized

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.schema):
                raise ValueError(
                    f"row {i} has {len(row)} cells for {len(self.schema)} columns"
                )

    def _header_lines(self) -> list[str]:
        return [
            f"# result-table kind={self.kind}",
            f"# config sha256={self.config_digest}",
            f"# generator hardyhenon4 {__version__} numpy {np.__version__}",
        ]

    def _columns(self) -> list[list[str]]:
        """The cells of each column, as _fmt prints them."""
        columns = zip(*self.rows) if self.rows else [()] * len(self.schema)
        return [_column_cells(column) for column in columns]

    def to_csv(self) -> str:
        lines = self._header_lines()
        lines.append(",".join(self.schema))
        lines.extend(map(",".join, zip(*self._columns())))
        return "\n".join(lines) + "\n"

    def to_aligned(self) -> str:
        columns = []
        for name, cells in zip(self.schema, self._columns()):
            cells.insert(0, name)
            columns.append(list(map(str.ljust, cells, repeat(max(map(len, cells))))))
        lines = self._header_lines()
        lines.extend(map(str.rstrip, map("  ".join, zip(*columns))))
        return "\n".join(lines) + "\n"


_FLOAT_CELLS = {float, type(None)}


def _column_cells(column: tuple) -> list[str]:
    """_fmt of each cell: a column of exact floats and Nones in one row
    writer call, its Nones blank; any other column cell by cell."""
    types = set(map(type, column))
    if not types <= _FLOAT_CELLS:
        return list(map(_fmt, column))
    if type(None) not in types:
        return _dp5.kernels().rows(np.array(column, np.float64)).splitlines()
    printed = iter(_dp5.kernels().rows(
        np.array([c for c in column if c is not None], np.float64)).splitlines())
    return ["" if c is None else next(printed) for c in column]


def _keyed_rng(seed: int):
    """keyed(row_key): a Generator in the state of
    Generator(Philox(key=[seed, row_key])), the same one re-keyed per call.

    Re-keying through the public state setter (counter 0, an empty
    buffer) costs less than building a Philox and a Generator per key.
    """
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, np.uint64)

    def keyed(row_key: int) -> np.random.Generator:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": (seed, row_key)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return rng

    return keyed


def _rng(seed: int, row_key: int) -> np.random.Generator:
    """The generator of one row key: Generator(Philox(key=[seed, row_key]))."""
    return _keyed_rng(seed)(row_key)


def _row_key(param_index: int, draw_index: int) -> int:
    return (param_index << 32) | draw_index


# Failures that end one draw or one check and land in its row's note
# (NonPositiveState and IntegrabilityError are ValueErrors).
_DRAW_ERRORS = (ValueError, ArithmeticError, IntegrationUnderflow)

_UNIT_BASIS = tuple(OdeState(*(float(j == k) for j in range(4))) for k in range(4))


def _row(schema: tuple[str, ...], **cells) -> tuple:
    """The named cells in schema order; the others blank, the note ''."""
    return tuple(cells.get(name) for name in schema[:-1]) + (cells.get("note") or "",)


def _table(kind: str, schema: tuple[str, ...], rows: list, config: ExperimentConfig) -> ResultTable:
    return ResultTable(kind=kind, schema=schema, rows=tuple(rows), config_digest=config.digest())


def _scalar_row(n, alpha, p) -> tuple[tuple, tuple, str]:
    """One grid triple by the scalar path of record, in the grid pass's
    layout, and its note: (status, regime, the sign codes of a0, a1 and
    a3), (the four exponents, B, a0..a4, w*) with NaN for a value the
    status leaves out or a0 <= 0, and the error the status stands for."""
    try:
        c = coefficients(ProblemParams(n=n, alpha=alpha, p=p))
    except ValueError as err:
        return (_dp5.ROW_INVALID, 0, 0, 0, 0), (math.nan,) * _dp5.GRID_VALUES, str(err)
    except ArithmeticError as err:
        return (_dp5.ROW_OVERFLOW, 0, 0, 0, 0), (math.nan,) * _dp5.GRID_VALUES, str(err)
    wstar, problem = _equilibrium(c)
    e = critical_exponents(c)
    status = _dp5.ROW_EQUILIBRIUM_OVERFLOW if problem else _dp5.ROW_OK
    signs = [_SIGN_CODES[s] for s in classify_regime(c).signs]
    return ((status, _REGIMES.index(c.regime), *signs),
            (e.serrin, e.hardy_sobolev, e.sobolev, e.upper_dichotomy,
             c.B, c.a0, c.a1, c.a2, c.a3, c.a4, math.nan if wstar is None else wstar),
            problem)


def _grid_pass(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The grid pass's codes and values for every triple of the config, from
    one kernel call, and each row's note: a row whose status is not ROW_OK
    re-runs the scalar path for its error text."""
    grid = config.param_grid
    codes, values = _dp5.kernels().grid(grid, _scalar_row)
    notes = [""] * len(grid)
    for i in np.flatnonzero(codes[:, 0] != _dp5.ROW_OK).tolist():
        notes[i] = _scalar_row(*grid[i])[2]
    return codes, values, notes


def _grid_points(config: ExperimentConfig, schema: tuple[str, ...], rows: list, **reject):
    """Yield (index, coeffs, tag, wstar, problem) for each valid grid triple.

    An invalid triple, or one whose coefficients overflow a double, gets
    one row with the error message and the `reject` cells instead.  coeffs
    is the point's one problem value and wstar its snapped equilibrium, None
    where a0 <= 0 or where it overflows, which problem then says; all come
    from the one grid pass.  tag holds the n, alpha, p and regime cells
    every row starts with.
    """
    codes, values, notes = _grid_pass(config)
    for idx, ((n, alpha, p), (status, regime, *_), v, note) in enumerate(
            zip(config.param_grid, codes.tolist(), values.tolist(), notes)):
        if status in _REJECTED:
            rows.append(_row(schema, n=n, alpha=alpha, p=p, note=note, **reject))
            continue
        coeffs = CoefficientSet(n, alpha, p, *v[4:10], _REGIMES[regime])
        tag = dict(n=n, alpha=alpha, p=p, regime=coeffs.regime)
        yield idx, coeffs, tag, None if math.isnan(v[10]) else v[10], note


def _draws(config: ExperimentConfig, idx: int, center: float, basis=_UNIT_BASIS):
    """Yield (i, state) for the config's draws at grid point idx.

    State i is (center, 0, 0, 0) + sum_k c_k basis_k with the c_k uniform
    in (-box, box) from the generator keyed by (seed, row key), so a draw
    does not depend on which other draws run.
    """
    keyed = _keyed_rng(config.seed)
    for i in range(config.samples):
        draw = keyed(_row_key(idx, i)).uniform(-config.box, config.box, len(basis))
        comps = [center, 0.0, 0.0, 0.0]
        for c, vec in zip(draw.tolist(), basis):
            for k in range(4):
                comps[k] += c * vec[k]
        yield i, OdeState(*comps)


def _equilibrium(coeffs: CoefficientSet) -> tuple[float | None, str]:
    """(w*, "") if a0 > 0, (None, "") if not, (None, reason) if w* overflows."""
    if coeffs.a0 <= 0.0:
        return None, ""
    try:
        return fixed_points(coeffs)[1], ""
    except OverflowError as err:
        return None, str(err)


def run_atlas(config: ExperimentConfig) -> ResultTable:
    """One row per grid point: exponents, coefficients, regime, equilibrium.

    The columns come straight from the grid pass's arrays; a rejected
    triple's row keeps n, alpha, p and the note, its other cells blank."""
    schema = (
        "n", "alpha", "p",
        "serrin", "hardy_sobolev", "sobolev", "upper_dichotomy",
        "B", "a0", "a1", "a2", "a3", "a4",
        "regime", "signs_ok", "w_star", "note",
    )
    codes, values, notes = _grid_pass(config)
    cells = values.astype(object)
    cells[np.isnan(values)] = None  # every value of a rejected row, and a missing w*
    regime, signs_ok = [], []
    for status, r, *signs in codes.tolist():
        kept = status not in _REJECTED
        regime.append(_REGIMES[r] if kept else None)
        expected = _EXPECTED_SIGNS[r]
        signs_ok.append(signs == expected if kept and expected else None)
    *value_columns, w_star = cells.T.tolist()
    columns = (*zip(*config.param_grid), *value_columns, regime, signs_ok, w_star, notes)
    return _table(ATLAS, schema, list(zip(*columns)), config)


def run_classification_sweep(config: ExperimentConfig) -> ResultTable:
    """Backward classification of seeded draws near the positive equilibrium.

    Grid points outside the dichotomy window are rejected per row, except
    that points with alpha > 0 and a positive equilibrium still run,
    tagged exploratory: there is no removable/singular contract there,
    only the two-sided bound regime.  A grid point's draws are integrated
    in one batch call (see dynamics._integrate_each).
    """
    schema = (
        "n", "alpha", "p", "regime", "kind", "index",
        "limit_class", "terminal_w0", "window_variation",
        "e_min", "e_max", "count", "note",
    )
    rows: list[tuple] = []
    for idx, coeffs, tag, wstar, problem in _grid_points(config, schema, rows, kind="reject"):
        ok, reason = in_dichotomy_window(coeffs)
        exploratory = coeffs.alpha > 0.0 and coeffs.a0 > 0.0 and coeffs.regime != OUT_OF_RANGE
        if not (ok or exploratory):
            rows.append(_row(schema, **tag, kind="reject", note=reason))
            continue
        note = "" if ok else "exploratory: " + reason
        if not problem and wstar <= config.box:
            problem = f"box {config.box:g} swallows the equilibrium {wstar:.6g}"
        problem = problem or _wide_margin(wstar, config.margin)
        if problem:
            rows.append(_row(schema, **tag, kind="reject", note=problem))
            continue
        counts: Counter[str] = Counter()
        states = [state for _, state in _draws(config, idx, wstar)]
        trajs = _integrate_each(states, 0.0, config.horizon, config.tol, coeffs)
        for i, traj in enumerate(trajs):
            try:
                if isinstance(traj, Exception):
                    raise traj
                cls = classify_limit(traj, wstar, margin=config.margin)
            except _DRAW_ERRORS as err:
                rows.append(_row(schema, **tag, kind="draw", index=i, note=str(err)))
                continue
            evals = energy(traj.states.T, coeffs)
            counts[cls.tag] += 1
            rows.append(_row(
                schema, **tag, kind="draw", index=i, limit_class=cls.tag,
                terminal_w0=cls.terminal_value, window_variation=cls.window_variation,
                e_min=float(evals.min()), e_max=float(evals.max()), note=note,
            ))
        rows.extend(
            _row(schema, **tag, kind="summary", limit_class=c, count=counts[c], note=note)
            for c in sorted(counts)
        )
    return _table(CLASSIFICATION, schema, rows, config)


def run_trajectory(config: ExperimentConfig) -> ResultTable:
    """Draw 0 of a one-sample sweep at the one grid point: t, w and energy rows.

    A short orbit is classified over half its span, and the verdict goes to
    the diagnostic line."""
    if len(config.param_grid) != 1 or config.samples != 1:
        raise ValueError("a trajectory config needs one grid point and samples=1")
    coeffs = coefficients(ProblemParams(*config.param_grid[0]))
    if coeffs.a0 <= 0.0:
        raise ValueError(f"a0={coeffs.a0:g} <= 0: no positive equilibrium to draw around")
    wstar = fixed_points(coeffs)[1]
    _, state = next(_draws(config, 0, wstar))
    traj = integrate(state, 0.0, config.horizon, config.tol, coeffs)
    window = min(DEFAULT_WINDOW, traj.span / 2.0)
    cls = classify_limit(traj, wstar, margin=config.margin, window=window)
    columns = (traj.times, *traj.states.T, energy(traj.states.T, coeffs))
    return ResultTable(
        kind=TRAJECTORY,
        schema=("t", "w0", "w1", "w2", "w3", "energy"),
        rows=tuple(zip(*(c.tolist() for c in columns))),
        config_digest=config.digest(),
        diagnostic=f"terminated {traj.termination} at t={traj.t_end:.6g}; "
        f"classified {cls.tag} (terminal w0 = {cls.terminal_value:.6g})",
    )


def run_energy_audit(config: ExperimentConfig) -> ResultTable:
    """Monotonicity and rate-law audit over seeded trajectories.

    Trajectories stop once w leaves a 4 w* escape box: past that point the
    power term dominates every polynomial scale and finite differencing
    the energy is no longer conditioned at the audited tolerances.
    """
    schema = (
        "n", "alpha", "p", "regime", "index",
        "max_violation", "rate_mismatch", "e_initial", "e_final", "note",
    )
    rows: list[tuple] = []
    for idx, coeffs, tag, wstar, problem in _grid_points(config, schema, rows):
        note = "" if coeffs.regime != OUT_OF_RANGE else "no monotone-direction contract for OutOfRange"
        if problem:
            rows.append(_row(schema, **tag, note=problem))
            continue
        center = 1.0 if wstar is None else wstar
        threshold = _AUDIT_ESCAPE_FACTOR * max(center, 1.0)
        for i, state in _draws(config, idx, center):
            try:
                traj = integrate(
                    state, 0.0, config.horizon, config.tol, coeffs, blowup_threshold=threshold
                )
                audit = audit_monotonicity(traj, coeffs)
            except _DRAW_ERRORS as err:
                rows.append(_row(schema, **tag, index=i, note=str(err)))
                continue
            rows.append(_row(
                schema, **tag, index=i,
                max_violation=audit.max_violation, rate_mismatch=audit.rate_mismatch,
                e_initial=energy(traj.states[0].tolist(), coeffs),
                e_final=energy(traj.states[-1].tolist(), coeffs),
                note=note,
            ))
    return _table(ENERGY_AUDIT, schema, rows, config)


def _backward_decaying_basis(wstar: float, coeffs: CoefficientSet) -> list[OdeState]:
    """Real unit vectors spanning the modes at wstar that decay as t -> -infinity."""
    rep = linearize(wstar, coeffs)
    basis = []
    for z in rep.roots:
        if z.real <= 0.0 or z.imag < 0.0:
            continue
        v = np.array([z**k for k in range(4)])
        basis.append(v.real / math.hypot(*v.real.tolist()))
        if z.imag > 0.0:
            basis.append(v.imag / math.hypot(*v.imag.tolist()))
    return [OdeState(*map(float, b)) for b in basis]


_GREEN_DEEP_HORIZON = -16.0


def _superharmonic_cells(traj: Trajectory, coeffs: CoefficientSet, wstar: float) -> dict:
    sh = superharmonic_check(traj, coeffs, wstar)
    return dict(tau=sh.tau, neglap_min=sh.min_value)


def _integrability_cells(traj: Trajectory, coeffs: CoefficientSet) -> dict:
    rep = integrability_report(traj, coeffs)
    return dict(
        l1_converges=rep.l1_converges,
        weighted_diverges=rep.weighted_diverges,
        l1_exponent=rep.l1_shell_exponent,
        weighted_exponent=rep.weighted_shell_exponent,
    )


def _sup_cells(traj: Trajectory, coeffs: CoefficientSet) -> dict:
    sups = singularity_bound_check(traj, coeffs).sup_values
    return dict(zip(("sup0", "sup1", "sup2", "sup3"), sups))


def run_green_study(config: ExperimentConfig) -> ResultTable:
    """Green-operator diagnostics for exact, removable and perturbed orbits.

    The exact equilibrium orbit gets the full battery (representation
    residual at two resolutions, superharmonicity, both integrability
    tests, scaled-jet sups).  The u == 1 orbit documents the removable
    side.  Perturbed singular orbits are integrated only to t = -4 and
    checked for superharmonicity and sups; their useful depth is limited
    by the backward-growing mode, see the module notes.  All three share
    the one w* found per grid point.
    """
    schema = (
        "n", "alpha", "p", "regime", "case", "index",
        "residual_coarse", "residual_fine", "ratio",
        "tau", "neglap_min",
        "l1_converges", "weighted_diverges", "l1_exponent", "weighted_exponent",
        "sup0", "sup1", "sup2", "sup3", "note",
    )
    rows: list[tuple] = []
    for idx, coeffs, tag, wstar, problem in _grid_points(config, schema, rows, case="reject"):
        removable = mode_trajectory([(1.0, coeffs.B)], 0.0, _GREEN_DEEP_HORIZON)
        try:
            superharmonic_check(removable, coeffs, wstar)
            cells = {"note": "superharmonic check unexpectedly accepted a removable orbit"}
        except _DRAW_ERRORS as err:
            cells = {"note": f"superharmonic rejected: {err}"}
        try:
            cells.update(_integrability_cells(removable, coeffs))
        except _DRAW_ERRORS as err:
            cells["note"] = str(err)
        cells.update(_sup_cells(removable, coeffs))
        rows.append(_row(schema, **tag, case="removable", **cells))
        if wstar is None:
            note = problem or "no positive equilibrium (a0 <= 0)"
            rows.append(_row(schema, **tag, case="reject", note=note))
            continue

        exact = equilibrium_trajectory(wstar, 0.0, _GREEN_DEEP_HORIZON)
        cells = {"note": ""}
        try:
            coarse = representation_check(exact, coeffs, count=config.grid_nodes)
            fine = representation_check(exact, coeffs, count=4 * config.grid_nodes)
            ratio = coarse.residual / fine.residual if fine.residual > 0.0 else float("inf")
            cells.update(
                residual_coarse=coarse.residual, residual_fine=fine.residual, ratio=ratio
            )
        except _DRAW_ERRORS as err:
            cells["note"] = str(err)
        try:
            cells.update(_superharmonic_cells(exact, coeffs, wstar))
            cells.update(_integrability_cells(exact, coeffs))
        except _DRAW_ERRORS as err:
            cells["note"] += str(err)
        cells.update(_sup_cells(exact, coeffs))
        rows.append(_row(schema, **tag, case="exact", **cells))

        basis = _backward_decaying_basis(wstar, coeffs)
        for i, state in _draws(config, idx, wstar, basis):
            try:
                traj = integrate(state, 0.0, _PERTURBED_HORIZON, config.tol, coeffs)
                cells = {**_superharmonic_cells(traj, coeffs, wstar), **_sup_cells(traj, coeffs)}
            except _DRAW_ERRORS as err:
                cells = {"note": str(err)}
            rows.append(_row(schema, **tag, case="perturbed", index=i, **cells))
    return _table(GREEN_STUDY, schema, rows, config)


_RUNNERS = {
    ATLAS: run_atlas,
    CLASSIFICATION: run_classification_sweep,
    ENERGY_AUDIT: run_energy_audit,
    GREEN_STUDY: run_green_study,
    TRAJECTORY: run_trajectory,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    return _RUNNERS[config.kind](config)
