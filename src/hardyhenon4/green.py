"""Radial Green-operator machinery on the unit ball for -Delta and Delta^2.

The solves are double cumulative quadratures in the log variable t = ln r
on a log-uniform grid:

    v(r) = int_r^1 tau^{1-n} ( int_0^tau f(s) s^{n-1} ds ) dtau,

iterated twice for the bilaplacian with Navier data v(1) = Delta v(1) = 0.
Panel integrals use a 5-node Lagrange rule (weights c/720 from a literal
table, O(h^5) globally), summed 0.0 + w0*g + ... + w4*g left to right
over shifted slices of whole arrays, never by BLAS; the inner integral's
piece below the grid is closed by a geometric tail whose exponent comes
from the two bottom octave sums, which is exact for power-law integrands.
The outer integral is accumulated from the boundary downward so the large
interior mass never cancels.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _dp5
from .params import CoefficientSet
from .transform import _exp, _log, _scaled_jet, neg_laplacian_radial
from .dynamics import (
    CONVERGES_TO_FIXED_POINT,
    DEFAULT_WINDOW,
    Trajectory,
    _wpow,
    classify_limit,
)

DEFAULT_R_MIN = 2.0**-20
DEFAULT_NODE_COUNT = 2048
MIN_NODE_COUNT = 256

# Shells per dyadic integrability test and trailing run length that
# declares convergence/divergence.
_DIVERGENCE_RUN = 6
_SHELL_PANELS = 64
_LN_DBL_MAX = math.log(np.finfo(float).max)


class IntegrabilityError(ValueError):
    """A required radial integral fails its dyadic integrability test."""


# Integrals of the degree-4 Lagrange basis on nodes {0..4} over the panels
# [0,1], [1,2], [2,3], [3,4]; each c / 720.0 is the correctly rounded
# rational weight.
_ROWS = tuple(
    tuple(c / 720.0 for c in row)
    for row in (
        (251, 646, -264, 106, -19),
        (-19, 346, 456, -74, 11),
        (11, -74, 456, 346, -19),
        (-19, 106, -264, 646, 251),
    )
)


def _panel_increments(g: np.ndarray, h: float) -> np.ndarray:
    if g.shape[-1] < 5:
        raise ValueError(f"need at least 5 nodes, got {g.shape[-1]}")
    parts = []
    for row, part in zip(_ROWS, (g[..., :5], g[..., :5], g, g[..., -5:])):
        acc = 0.0
        for i, w in enumerate(row):
            acc = acc + w * part[..., i : part.shape[-1] - 4 + i]
        parts.append(acc)
    return h * np.concatenate(parts, axis=-1)


def _cumulative_up(g: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros(len(g))
    out[1:] = np.cumsum(_panel_increments(g, h))
    return out


def _cumulative_down(g: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros(len(g))
    out[:-1] = np.cumsum(_panel_increments(g, h)[::-1])[::-1]
    return out


def _tail_estimate(F: np.ndarray, grid: RadialGrid) -> float:
    """Mass of int_{-inf}^{t_0} g dt assuming a geometric (power-law) tail.

    The exponent is read off the bottom octave sums S1, S2 of F, the
    cumulative integral of g: for g = C e^{sigma t} the estimate
    S1 / (S2/S1 - 1) is exact, and the panel-rule errors cancel in the ratio.
    IntegrabilityError where it cannot be formed: the grid spans less than
    the two octaves below r = 1, or the octave ratio S2/S1 is not above 1.
    """
    m = max(2, int(round(math.log(2.0) / grid.h)))
    if 2 * m >= len(F):
        raise IntegrabilityError(f"grid too shallow for the octave tail estimate: its smallest "
                                 f"radius {grid.nodes[0]:.6g} is above r = "
                                 f"{math.exp(-2 * m * grid.h):.6g}, two octaves below r = 1")
    s1, s2 = float(F[m]), float(F[2 * m] - F[m])
    if s1 <= 0.0:
        return 0.0
    rho = s2 / s1
    if rho <= 1.0 + 1e-12:
        raise IntegrabilityError(
            f"inner integrand has a non-integrable tail (octave ratio {rho:.6g} <= 1)"
        )
    return s1 / (rho - 1.0)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Log-uniform radii in (r_min, 1]; 1 is always a node, r_min is not."""

    r_min: float
    t: np.ndarray      # log-radii, strictly increasing, t[-1] == 0
    nodes: np.ndarray  # radii exp(t)
    h: float           # log spacing

    @property
    def count(self) -> int:
        return len(self.nodes)


def make_grid(count: int = DEFAULT_NODE_COUNT) -> RadialGrid:
    """count log-uniform radii in (DEFAULT_R_MIN, 1]."""
    if count < MIN_NODE_COUNT:
        raise ValueError(f"need at least {MIN_NODE_COUNT} nodes, got {count}")
    t_min = math.log(DEFAULT_R_MIN)
    h = -t_min / count
    t = t_min + (np.arange(count) + 1) * h
    t[-1] = 0.0
    return RadialGrid(r_min=DEFAULT_R_MIN, t=t, nodes=_exp(t), h=h)


@dataclass(eq=False)
class RadialField:
    """A sampled radial function, optionally labeled with (n, alpha, p)."""

    grid: RadialGrid
    values: np.ndarray
    n: int | None = None
    alpha: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.count:
            raise ValueError(
                f"field has {len(self.values)} values for {self.grid.count} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise ValueError(f"non-finite field value at node {bad}")

    def dumps(self) -> str:
        head = (
            f"# radial-field n={'' if self.n is None else self.n}"
            f" alpha={_label(self.alpha)} p={_label(self.p)}\n"
        )
        return head + _dp5.kernels().rows(self.grid.nodes, self.values)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "RadialField":
        """Read a saved field: a '# radial-field' header line, then 'radius,value'
        rows of log-uniform, ascending radii ending at 1.  Header labels may be
        empty; n must be an integer >= 3, alpha and p finite numbers.  Every
        ValueError names the file.

        The file is read once.  The kernels' row reader reads the body of
        an ASCII file without a CR byte, whose rows are in the form dumps
        writes; np.loadtxt reads every other body from the same bytes, to
        the same doubles and with the same messages.
        """
        try:
            data = Path(path).read_bytes()
            start = data.find(b"\n") + 1 or len(data)
            # Here readline would return the bytes up to the first '\n'.
            plain = data.isascii() and b"\r" not in data
            head = data[:start].decode("ascii") if plain else _text(data).readline()
            m = re.fullmatch(r"# radial-field n=(\S*) alpha=(\S*) p=(\S*)\s*", head)
            if m is None:
                raise ValueError(f"first line is not a '# radial-field' header: {head!r}")
            n, alpha, p = map(_header_label, ("n", "alpha", "p"), m.groups())
            columns = _dp5.kernels().parse(data, start) if plain else None
            radii, vals = _read_rows(data) if columns is None else columns
            del data  # the bytes are not held past the read
            if not np.all(radii > 0.0):
                raise ValueError("radii must be positive")
            t = _log(radii)
            diffs = np.diff(t)
            if not np.all(diffs > 0.0):
                raise ValueError("radii must be strictly ascending")
            if np.any(np.abs(diffs - diffs[:1]) > 1e-9 * np.abs(diffs[:1])):
                raise ValueError("radii are not log-uniform")
            if np.any(np.abs(t[-1:]) > 1e-12):
                raise ValueError(
                    f"last radius is {float(radii[-1])!r}; the grid must end at r = 1, "
                    "where the Navier data are imposed"
                )
            if len(radii) < MIN_NODE_COUNT:
                raise ValueError(f"{len(radii)} nodes; need at least {MIN_NODE_COUNT}")
            h = float(diffs[0])
            grid = RadialGrid(r_min=_exp(t[0] - h), t=t, nodes=radii, h=h)
            return cls(grid=grid, values=vals, n=n, alpha=alpha, p=p)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err


def _label(x: float | None) -> str:
    """A header label: empty for None, else format(x, 'g') where that reads
    back as x, else repr(x)."""
    if x is None:
        return ""
    short = format(x, "g")
    return short if float(short) == x else repr(x)


def _text(data: bytes) -> io.TextIOWrapper:
    """A field file's bytes as open() reads them: decoded, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data))


def _read_rows(data: bytes) -> np.ndarray:
    """The body of a field file's bytes as np.loadtxt reads it: two
    C-contiguous rows, the radii and the values."""
    with warnings.catch_warnings():
        # a header-only file is reported by the node floor in load
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(_text(data), delimiter=",", comments=None, skiprows=1, ndmin=2)
        except ValueError as err:
            raise ValueError(f"expected 'radius,value' rows: {_row_defect(data) or err}") from err
    if len(rows) and rows.shape[1] != 2:
        raise ValueError(f"expected 'radius,value' rows: {_row_defect(data)}")
    return np.ascontiguousarray(rows.reshape(-1, 2).T)


def _row_defect(data: bytes) -> str | None:
    """The first row of a field file's body without exactly two cells, or
    None.

    Rows count from 0 after the header, empty lines left out, as in
    numpy's messages about a bad cell.
    """
    rows = np.array(_text(data).read().split("\n")[1:], dtype=str)
    rows = rows[np.char.str_len(rows) > 0]
    cells = np.char.count(rows, ",") + 1
    bad = np.flatnonzero(cells != 2)
    if bad.size:
        i, k = bad[0], cells[bad[0]]
        return f"body row {i} has {k} cell{'s' if k != 1 else ''}"
    return None


def _header_label(name: str, text: str) -> int | float | None:
    """A '# radial-field' label: empty is None, n an integer >= 3, else a finite float."""
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    rule = "an integer >= 3" if name == "n" else "a finite number"
    if not (math.isfinite(value) and (name != "n" or (text.isdecimal() and value >= 3))):
        raise ValueError(f"header label {name}={text} is not {rule}")
    return int(text) if name == "n" else value


def _check_dimension(n: int) -> None:
    if n < 3:
        raise ValueError(f"need dimension n >= 3, got {n}")


def _inner_integral(values: np.ndarray, grid: RadialGrid, r_n: np.ndarray) -> np.ndarray:
    # int_{-inf}^t f e^{ns} ds at each node: the tail below the grid plus
    # the cumulative quadrature, with r_n = e^{nt} on the grid.
    F = _cumulative_up(values * r_n, grid.h)
    return _tail_estimate(F, grid) + F


def poisson_solve_radial(f: RadialField, n: int) -> RadialField:
    """Solve -Delta v = f radially with v(1) = 0 by double cumulative quadrature."""
    _check_dimension(n)
    grid = f.grid
    inner = _inner_integral(f.values, grid, _exp(n * grid.t))
    g_out = inner * _exp((2.0 - n) * grid.t)
    return RadialField(grid=grid, values=_cumulative_down(g_out, grid.h))


def bilaplacian_solve_radial(f: RadialField, n: int) -> RadialField:
    """Solve Delta^2 v = f radially with Navier data v(1) = Delta v(1) = 0.

    Two Poisson solves, poisson_solve_radial(poisson_solve_radial(f, n), n)
    to the byte, that compute the weights e^{nt} and e^{(2-n)t} once.
    """
    _check_dimension(n)
    grid = f.grid
    r_n = _exp(n * grid.t)
    inner = _inner_integral(f.values, grid, r_n)
    r_2n = _exp((2.0 - n) * grid.t)
    # A field, so that a non-finite first solve raises as poisson_solve_radial's does.
    v = RadialField(grid=grid, values=_cumulative_down(inner * r_2n, grid.h))
    inner = _inner_integral(v.values, grid, r_n)
    return RadialField(grid=grid, values=_cumulative_down(inner * r_2n, grid.h))


def _project_span(target: np.ndarray, columns: np.ndarray) -> np.ndarray:
    # Modified Gram-Schmidt with one reorthogonalization pass, every inner
    # product an np.sum(a * b): a fixed order of operations, so the
    # residual does not depend on which BLAS kernel the machine loads.
    # A column that comes out zero (an underflowed power) is dropped.
    def deflate(v: np.ndarray) -> np.ndarray:
        for _ in range(2):
            for q in basis:
                v = v - np.sum(q * v) * q
        return v

    basis: list[np.ndarray] = []
    for column in columns.T:
        v = deflate(column)
        norm = math.sqrt(np.sum(v * v))
        if norm > 0.0:
            basis.append(v / norm)
    return deflate(target)


def biharmonic_span_residual(u: RadialField, source: RadialField, n: int) -> float:
    """Relative residual of u - G2[source] after projecting out biharmonics.

    The comparison runs on the interior half of the grid (middle two
    quarters), in units of |u| per node; the projected span is
    {1, r^2, r^{2-n}, r^{4-n}}, the radial kernel of Delta^2.
    """
    grid = u.grid
    if source.grid is not grid and (
        source.grid.count != grid.count
        or abs(source.grid.r_min - grid.r_min) > 1e-15
    ):
        raise ValueError("u and source must share a grid")
    v = bilaplacian_solve_radial(source, n)
    d = u.values - v.values
    lo, hi = grid.count // 4, 3 * grid.count // 4
    # r^k = e^{k t}, with t the grid's own log-radii
    powers = _exp(np.multiply.outer(grid.t, (2.0, 2.0 - n, 4.0 - n)))
    basis = np.column_stack([np.ones(grid.count), powers])
    scale = np.abs(u.values[lo:hi])
    if np.any(scale == 0.0):
        raise ValueError("u vanishes on the interior window; cannot form relative residual")
    res = _project_span(d[lo:hi] / scale, basis[lo:hi] / scale[:, None])
    return math.sqrt(float(np.mean(res**2)))


def _field_from_trajectory(
    traj: Trajectory, coeffs: CoefficientSet, grid: RadialGrid
) -> tuple[RadialField, RadialField]:
    """Sample u = r^{-B} w and f = r^alpha u^p on the grid nodes."""
    B = coeffs.B
    t0 = float(grid.t[0])
    if not (traj.covers(t0) and traj.covers(0.0)):
        raise ValueError(
            f"trajectory covers [{traj.t_start:.3g}, {traj.t_end:.3g}] but the "
            f"grid needs [{t0:.3g}, 0]"
        )
    w = traj.sample(grid.t)[:, 0]
    j = int(np.argmax(w <= 0.0))
    if w[j] <= 0.0:
        raise ValueError(f"non-positive field value at node {j} (r={grid.nodes[j]:.6g})")
    u_vals = _exp(-B * grid.t) * w
    f_vals = _exp(coeffs.alpha * grid.t) * _wpow(u_vals, coeffs.p)
    u_field = RadialField(grid=grid, values=u_vals, n=coeffs.n, alpha=coeffs.alpha, p=coeffs.p)
    f_field = RadialField(grid=grid, values=f_vals, n=coeffs.n, alpha=coeffs.alpha, p=coeffs.p)
    return u_field, f_field


@dataclass(frozen=True)
class RepresentationReport:
    residual: float
    node_count: int


def representation_check(
    traj: Trajectory, coeffs: CoefficientSet, count: int = DEFAULT_NODE_COUNT
) -> RepresentationReport:
    """Post-projection residual of u - G2[r^alpha u^p] for a trajectory.

    For a true solution the difference is a radial biharmonic function
    (boundary kernels), so the projected residual is pure quadrature
    error and must shrink under grid refinement.
    """
    grid = make_grid(count)
    u_field, f_field = _field_from_trajectory(traj, coeffs, grid)
    return RepresentationReport(
        residual=biharmonic_span_residual(u_field, f_field, coeffs.n),
        node_count=count,
    )


@dataclass(frozen=True)
class SuperharmonicReport:
    tau: float
    min_value: float


def superharmonic_check(
    traj: Trajectory, coeffs: CoefficientSet, wstar: float | None
) -> SuperharmonicReport:
    """Positivity sweep of -Delta u along a singular-class trajectory.

    Returns the largest tau with -Delta u > 0 on (0, tau) within the
    sampled range and the minimum over that range.  The trajectory must
    classify to the equilibrium wstar (see classify_limit; None where
    a0 <= 0): removable-class trajectories are rejected, since the
    property is asserted only near a non-removable singularity.
    """
    cls = classify_limit(traj, wstar, window=min(DEFAULT_WINDOW, traj.span / 2.0))
    if cls.tag != CONVERGES_TO_FIXED_POINT:
        raise ValueError(
            f"superharmonicity needs a singular-class trajectory, got {cls.tag}"
        )
    order = np.argsort(traj.times)
    ts = traj.times[order]
    vals = neg_laplacian_radial(ts, traj.states[order].T, coeffs)
    # Largest prefix vals[:k] from the deep end on which -Delta u stays positive.
    k = int(np.argmax(np.append(vals <= 0.0, True)))
    if k == 0:
        return SuperharmonicReport(tau=0.0, min_value=float(vals[0]))
    return SuperharmonicReport(tau=math.exp(ts[k - 1]), min_value=float(vals[:k].min()))


@dataclass(frozen=True)
class IntegrabilityReport:
    """Dyadic shell diagnostics for the L^1 and weighted radial integrals."""

    l1_converges: bool
    weighted_diverges: bool
    l1_ratios: tuple[float, ...]
    weighted_ratios: tuple[float, ...]
    l1_shell_exponent: float
    weighted_shell_exponent: float


def _shell_sums(traj: Trajectory, coeffs: CoefficientSet, weights: tuple, k_max: int) -> np.ndarray:
    """Quadrature of e^{w t} u^p over shells [2^{-k-1}, 2^{-k}], one row per w in weights."""
    B, p = coeffs.B, coeffs.p
    ln2 = math.log(2.0)
    h = ln2 / _SHELL_PANELS
    t_hi = -np.arange(k_max + 1) * ln2
    ts = (t_hi[:, None] - ln2 + np.arange(_SHELL_PANELS + 1) * h).ravel()
    w = traj.sample(ts)[:, 0]
    arg = -B * ts
    # The first node, in shell order, where w < 0 or where r^-B = e^arg
    # overflows a double, which math.exp does exactly above ln(DBL_MAX).
    j = int(np.argmax((w < 0.0) | (arg > _LN_DBL_MAX)))
    if w[j] < 0.0:
        raise ValueError(f"negative w at t={ts[j]:.6g}; integrand undefined")
    if arg[j] > _LN_DBL_MAX:
        raise OverflowError(
            f"u = r^-B w overflows a double at r = {math.exp(ts[j]):.3g} (B = {B:.6g})"
        )
    up = _wpow(_exp(arg) * w, p)
    g = _exp(np.multiply.outer(weights, ts)) * up
    return _panel_increments(g.reshape(len(weights), k_max + 1, -1), h).sum(axis=-1)


def integrability_report(traj: Trajectory, coeffs: CoefficientSet) -> IntegrabilityReport:
    """Run both dyadic shell tests on r^alpha u^p.

    The L^1 test integrates against r^{n-1} dr and must converge for the
    representation to exist at all (six consecutive growing shells raise
    IntegrabilityError).  The weighted test integrates against r dr
    (the m = 2 kernel weight) and is expected to diverge exactly for the
    singular class.  Shell exponents are read off the deepest ratio.
    """
    n, alpha = coeffs.n, coeffs.alpha
    t_min = min(traj.t_start, traj.t_end)
    if not traj.covers(0.0):
        raise ValueError("trajectory must reach t = 0 (the outer boundary)")
    k_max = int(-t_min / math.log(2.0)) - 1
    if k_max < 17:
        raise ValueError(
            f"insufficient resolution: trajectory reaches r = {math.exp(t_min):.3g}, "
            f"need 2^-17 or deeper"
        )
    sums = _shell_sums(traj, coeffs, (float(n) + alpha, 2.0 + alpha), k_max)
    # ratios[k] = deeper shell / shallower shell
    l1_ratios, wt_ratios = (tuple((s[1:] / s[:-1]).tolist()) for s in sums)
    run = _DIVERGENCE_RUN
    if all(q >= 1.0 for q in l1_ratios[-run:]):
        raise IntegrabilityError(
            f"L^1 dyadic test diverges: last {run} shell ratios all >= 1 "
            f"(deepest {l1_ratios[-1]:.6g})"
        )
    l1_conv = all(q < 1.0 for q in l1_ratios[-run:])
    wt_div = all(q >= 1.0 for q in wt_ratios[-run:])
    return IntegrabilityReport(
        l1_converges=l1_conv,
        weighted_diverges=wt_div,
        l1_ratios=l1_ratios,
        weighted_ratios=wt_ratios,
        l1_shell_exponent=-math.log2(l1_ratios[-1]),
        weighted_shell_exponent=-math.log2(wt_ratios[-1]),
    )


@dataclass(frozen=True)
class SingularityBoundReport:
    """sup over r <= 1/2 of r^{B+i} |u^(i)(r)| for i = 0..3."""

    sup_values: tuple[float, float, float, float]


def singularity_bound_check(traj: Trajectory, coeffs: CoefficientSet) -> SingularityBoundReport:
    """Scaled sups of the u-jet; finite iff the scale-invariant bound holds.

    r^{B+i} u^(i)(r) equals the i-th inverse-transform bracket in w, so
    the sups are computed directly from trajectory states without any
    exponentials (exact scaling).
    """
    inner = traj.states[traj.times <= -math.log(2.0)]
    if not len(inner):
        raise ValueError("trajectory has no samples with r <= 1/2")
    sups = np.abs(_scaled_jet(inner.T, coeffs.B)).max(axis=1)
    return SingularityBoundReport(sup_values=tuple(sups.tolist()))
