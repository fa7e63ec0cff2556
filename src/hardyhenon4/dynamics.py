"""The transformed fourth-order equation as an autonomous dynamical system.

State is the 4-jet y = (w, w', w'', w''') in log-radius t; the flow is

    y' = (w', w'', w''', w^p - a3 w''' - a2 w'' - a1 w' - a0 w).

Backward time (t decreasing) walks toward the singularity r -> 0.  The two
equilibria are w = 0 and w = a0^{1/(p-1)}; trajectories are produced by an
embedded Dormand-Prince 5(4) pair with PI step-size control and cubic
Hermite dense output, and are classified against those equilibria.  The
step loop with its uniform samples, the dense output and the ulp scan of
fixed_points run in the kernels of _dp5, compiled or as their Python
twins.  A trajectory is stored as arrays (times, a (k, 4) state array and
an (m, 18) segment array); Trajectory.sample(ts) evaluates the dense
output at a whole array of times at once; a closed-form orbit evaluates
its analytic(ts) instead, which maps k times to a (k, 4) state array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _dp5
from .params import CRITICAL, CoefficientSet
from .transform import OdeState, _exp, _log

# Termination reasons.
REACHED_END = "ReachedEnd"
BLOW_UP = "BlowUp"
NON_POSITIVE = "NonPositive"
# The termination of each status with which the step kernel ends an orbit.
_TERMINATION = {_dp5.END: REACHED_END, _dp5.BLOW_UP: BLOW_UP, _dp5.NON_POSITIVE: NON_POSITIVE}

# Limit-class tags.
CONVERGES_TO_ZERO = "ConvergesToZero"
CONVERGES_TO_FIXED_POINT = "ConvergesToFixedPoint"
UNDETERMINED = "Undetermined"

DEFAULT_BLOWUP_THRESHOLD = 1e6
DEFAULT_MARGIN = 1e-3
DEFAULT_WINDOW = 5.0
DEFAULT_SAMPLE_SPACING = 0.01

TOL_MIN, TOL_MAX = 1e-13, 1e-4


class NonPositiveState(ValueError):
    """Raised by vector_field when w < 0: the nonlinearity w^p is undefined."""


class IntegrationUnderflow(RuntimeError):
    """Step size collapsed; the integration outcome is undetermined."""


def _wpow(w, q: float):
    # w^q = exp(q log w) where w > 0, else 0, for a float or an array: one
    # power path for the flow, fixed points and energy, so bits agree.
    if isinstance(w, float) or np.ndim(w) == 0:  # np.ndim of a float builds an array
        return math.exp(q * math.log(w)) if w > 0.0 else 0.0
    pos = w > 0.0
    return _exp(q * _log(np.where(pos, w, 1.0))) * pos


def vector_field(state: OdeState, coeffs: CoefficientSet) -> OdeState:
    """Right-hand side of the first-order system; rejects negative w."""
    if state[0] < 0.0:
        raise NonPositiveState(f"w={state[0]!r} < 0: trajectory left the admissible cone")
    return OdeState(*_rhs(state, coeffs))


def fixed_points(coeffs: CoefficientSet) -> list[float]:
    """Return the equilibria {0, a0^{1/(p-1)}} of the scalar reduction.

    The positive root is snapped to a double near the power-function seed
    a0^{1/(p-1)}: over the window of +-2048 ulps around the seed, the w
    with the smallest key (residual |w^p - a0 w| in the floating-point
    path vector_field uses, then |w - seed|, then the lower w).  The
    equilibrium is hyperbolic, so a nonzero residual would be amplified
    exponentially along any long integration started there; snapping to
    an exact machine equilibrium makes such runs honestly stationary.

    The result does not depend on the order of the scan, so it runs in
    rings of +-16, +-32, ... +-2048 ulps, each side walking outward, and
    stops early where no ulp left can beat the best so far.  Before each
    ring it stops if the best residual is an exact zero and lies strictly
    nearer the seed than the next unscanned ulp on both sides.  It also
    closes a side once a lower bound on the computed residual of every
    ulp left there exceeds the best residual: the exact residual grows
    with the distance from the true root, by more than the rounding of
    log, p*log, exp and a0*w can hide, given libm's exp, log and pow
    within 4 ulps (_dp5.SCAN_LIBM_ULPS).  That rule holds only where the
    seed and a0 times it lie within 2^-1000..2^1000, p > 1, and p is not
    so large that the bound's first-order terms break down; elsewhere the
    whole window is scanned, as without it.  An ulp whose residual
    overflows a double cannot be the minimizer and is skipped; if the
    seed's own residual overflows, OverflowError names it.
    """
    a0 = coeffs.a0
    if a0 <= 0.0:
        warnings.warn(
            f"a0={a0:g} <= 0: no positive equilibrium (outside the expected regime)",
            stacklevel=2,
        )
        return [0.0]
    return [0.0, _snap(a0, coeffs.p)[0]]


def _snap(a0: float, p: float) -> tuple[float, int]:
    """fixed_points' snapped equilibrium for a0 > 0, and the number of ulps
    whose residual it evaluated, the seed included."""
    try:
        seed = a0 ** (1.0 / (p - 1.0))
    except OverflowError:
        raise OverflowError(
            f"equilibrium a0^(1/(p-1)) overflows a double (a0={a0:.6g}, p={p!r})"
        ) from None
    try:
        best_g = abs(_wpow(seed, p) - a0 * seed)
    except OverflowError:
        raise OverflowError(
            f"residual w^p at the equilibrium w={seed:.6g} overflows a double (p={p!r})"
        ) from None
    return _dp5.kernels().scan(seed, best_g, a0, p)


def _wide_margin(wstar: float, margin: float) -> str:
    """Why `margin` cannot tell 0 from the equilibrium wstar, or "" if it can.

    A margin above wstar/2 puts both equilibria in one tube.
    """
    if 2.0 * margin > wstar:
        return f"margin {margin:g} swallows the equilibrium: need margin <= a0^(1/(p-1))/2"
    return ""


@dataclass(frozen=True)
class LinearizationReport:
    """Characteristic data of the linearization at an equilibrium."""

    char_coeffs: tuple[float, float, float, float, float]
    roots: tuple[complex, complex, complex, complex]
    n_unstable_backward: int


def linearize(point: float, coeffs: CoefficientSet) -> LinearizationReport:
    """Characteristic polynomial and roots of the linearization at a point.

    The polynomial is mu^4 + a3 mu^3 + a2 mu^2 + a1 mu + (a0 - c) with
    c = p point^{p-1}.  With lam = mu - B it is the radial Delta^2 symbol
    lam (lam - 2)(lam + n - 2)(lam + n - 4) less c, even in lam + A, so
    its roots are, in closed form,

        mu = B - A +- sqrt(M + 1 +- sqrt(4M + c)),
        A = (n - 4)/2,  M = ((n - 2)/2)^2.

    The outer pair is real; the center pair is real iff c <= (M - 1)^2 =
    n^2 (n - 4)^2 / 16, and otherwise B - A +- i sqrt(sqrt(4M + c) - M - 1).
    At w* the constant term is a0 - p a0, so there the threshold reads
    p a0 <= n^2 (n - 4)^2 / 16 (Gazzola-Grunau).
    At a critical triple B = A exactly, but B - A computed can be an ulp
    off 0, so there the shift B - A is 0.0: a complex center pair is then
    neutral and not counted in n_unstable_backward.  The roots are sorted
    by (real, imag).
    """
    c = coeffs.p * _wpow(point, coeffs.p - 1.0)
    cs = (1.0, coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0 - c)
    n = float(coeffs.n)
    m = 0.25 * (n - 2.0) ** 2
    shift = 0.0 if coeffs.regime == CRITICAL else coeffs.B - 0.5 * (n - 4.0)
    spread = math.sqrt((n - 2.0) ** 2 + c)
    outer = math.sqrt(m + 1.0 + spread)
    center = m + 1.0 - spread
    y = math.sqrt(abs(center))
    if center >= 0.0:
        pair = (complex(shift - y), complex(shift + y))
    else:
        pair = (complex(shift, -y), complex(shift, y))
    roots = (complex(shift - outer), *pair, complex(shift + outer))
    n_right = sum(1 for z in roots if z.real > 0.0)
    return LinearizationReport(char_coeffs=cs, roots=roots, n_unstable_backward=n_right)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A computed orbit: uniform samples plus dense per-step segments.

    times, shape (k,), run strictly monotonically (decreasing for backward
    runs); states, shape (k, 4), holds the 4-jet at each time.  The
    stored samples lie DEFAULT_SAMPLE_SPACING apart except for the
    terminal point.  segments, shape (m, 18), holds one row per accepted
    step (see _dp5._hermite); rejected counts the steps the controller
    turned down on the way; rhs_evals, h_min and h_max follow from the two.
    sample(ts) evaluates the dense representation at every time of ts in
    the covered span, so audits can resample at their own stencils; at a
    stored sample other than the terminal point it returns the stored
    state.  A closed-form orbit carries analytic, which maps a 1-D array
    of times to their (len(ts), 4) states.
    """

    times: np.ndarray
    states: np.ndarray
    termination: str
    segments: np.ndarray = field(
        repr=False, default_factory=lambda: np.empty((0, _dp5.SEGMENT_COLUMNS))
    )
    analytic: Callable[[np.ndarray], np.ndarray] | None = field(repr=False, default=None)
    rejected: int = 0

    def __post_init__(self) -> None:
        for name in ("times", "states", "segments"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.states.shape != (len(self.times), 4):
            raise ValueError("times and states must have equal length")
        width = _dp5.SEGMENT_COLUMNS
        if self.segments.ndim != 2 or self.segments.shape[1] != width:
            raise ValueError(f"segments must have shape (m, {width}), got {self.segments.shape}")
        t = self.times
        # Decreasing first: integrate runs backward toward the singularity.
        if not ((t[1:] < t[:-1]).all() or (t[1:] > t[:-1]).all()):
            raise ValueError("trajectory times must be strictly monotone")
        if not np.isfinite(self.states).all():
            raise ValueError("trajectory contains a non-finite state")

    @property
    def rhs_evals(self) -> int:
        """Right-hand side evaluations of integrate: one at the start, six per
        attempted step; 0 for an orbit without segments."""
        return 1 + 6 * (len(self.segments) + self.rejected) if len(self.segments) else 0

    @property
    def h_min(self) -> float:
        """The smallest accepted step, nan for an orbit without segments."""
        return float(self._step_sizes().min()) if len(self.segments) else math.nan

    @property
    def h_max(self) -> float:
        """The largest accepted step, nan for an orbit without segments."""
        return float(self._step_sizes().max()) if len(self.segments) else math.nan

    def _step_sizes(self) -> np.ndarray:
        return np.abs(self.segments[:, 1] - self.segments[:, 0])

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def span(self) -> float:
        return abs(self.t_end - self.t_start)

    def covers(self, t):
        """Whether t, a float or an array of them, lies in the span up to 1e-12."""
        lo, hi = min(self.t_start, self.t_end), max(self.t_start, self.t_end)
        return (lo - 1e-12 <= t) & (t <= hi + 1e-12)

    def sample(self, ts) -> np.ndarray:
        """Dense evaluation at each covered time of the 1-D ts: a (len(ts), 4) array."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError(f"need a 1-D array of times, got shape {ts.shape}")
        # The span test reads two reductions; a NaN fails it, as it fails covers().
        lo, hi = min(self.t_start, self.t_end), max(self.t_start, self.t_end)
        if len(ts) and not (lo - 1e-12 <= ts.min() and ts.max() <= hi + 1e-12):
            t = float(ts[~self.covers(ts)][0])
            raise ValueError(f"t={t!r} outside the covered span [{self.t_start}, {self.t_end}]")
        if self.analytic is not None:
            return self.analytic(ts)
        return _dp5.kernels().dense(self.segments, ts)


def uniform_times(t0: float, t1: float) -> np.ndarray:
    """Every grid time t0 + sgn k h, k = 0, 1, ..., toward t1 and not past it;
    h = DEFAULT_SAMPLE_SPACING.  The step kernel samples an orbit at these
    times, then at its end point."""
    h = DEFAULT_SAMPLE_SPACING
    sgn = 1.0 if t1 > t0 else -1.0
    # The quotient may round to either side of a grid time at t1.
    ts = t0 + sgn * np.arange(int(abs(t1 - t0) / h) + 2) * h
    return ts[sgn * ts <= sgn * t1]


def analytic_trajectory(fn: Callable[[np.ndarray], np.ndarray], t0: float, t1: float) -> Trajectory:
    """Wrap a closed-form solution, k times -> (k, 4) states, as a Trajectory."""
    if t0 == t1:
        raise ValueError("need t0 != t1")
    ts = uniform_times(t0, t1)
    if ts[-1] != t1:
        ts = np.append(ts, t1)
    return Trajectory(times=ts, states=fn(ts), termination=REACHED_END, analytic=fn)


def equilibrium_trajectory(wstar: float, t0: float = 0.0, t1: float = -15.0) -> Trajectory:
    """The exact constant orbit at wstar, the snapped equilibrium fixed_points(coeffs)[1]."""
    return analytic_trajectory(lambda ts: np.tile((wstar, 0.0, 0.0, 0.0), (len(ts), 1)), t0, t1)


def mode_trajectory(terms: Sequence[tuple[float, float]], t0: float, t1: float) -> Trajectory:
    """Exact orbit of the linear part: w(t) = sum of c * e^{mu t} terms.

    Useful for kernel elements of the linearization at zero, e.g. u == 1
    corresponds to the single term (1, B).
    """

    def fn(ts: np.ndarray) -> np.ndarray:
        comps = np.zeros((len(ts), 4))
        for c, mu in terms:
            e = c * _exp(mu * ts)
            for k in range(4):
                comps[:, k] += e
                e *= mu
        return comps

    return analytic_trajectory(fn, t0, t1)


def _rhs(y, coeffs: CoefficientSet):
    # Right-hand side with the pow base clipped at zero; sign crossings are
    # handled by the termination logic, so a trial stage poking below zero
    # is tolerated without raising.  The step kernel and its twin inline it.
    w0 = y[0]
    w4 = (
        _wpow(w0, coeffs.p)
        - coeffs.a3 * y[3]
        - coeffs.a2 * y[2]
        - coeffs.a1 * y[1]
        - coeffs.a0 * y[0]
    )
    return (y[1], y[2], y[3], w4)


def _initial_step(y0, f0, span: float, rtol: float, atol: float) -> float:
    # Standard curvature-free heuristic; a vanishing field means the state
    # is an exact equilibrium and the whole span can be taken at once.  A
    # square past a double raises errno 34's text: it gets the text of an
    # overflowing stage, which has the same cause.
    try:
        d0 = math.sqrt(sum((y0[i] / (atol + rtol * abs(y0[i]))) ** 2 for i in range(4)) / 4.0)
        d1 = math.sqrt(sum((f0[i] / (atol + rtol * abs(y0[i]))) ** 2 for i in range(4)) / 4.0)
    except OverflowError:
        raise OverflowError("math range error") from None
    if d1 == 0.0:
        return span
    if d0 < 1e-5:
        h = 1e-6
    else:
        h = 0.01 * d0 / d1
    return min(h, span)


def integrate(
    initial: OdeState,
    t0: float,
    t1: float,
    tol: float,
    coeffs: CoefficientSet,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> Trajectory:
    """Adaptive integration of the Delta^2 flow (m = 2) from t0 to t1, either direction.

    Parameters
    ----------
    initial : starting 4-jet with w >= 0.
    t0, t1 : finite time span; t1 < t0 integrates backward toward r -> 0.
    tol : relative tolerance in [1e-13, 1e-4]; absolute tolerance is
        tol/100.
    coeffs : the problem: p and the coefficients a0..a3 of the flow.
    blowup_threshold : w level that terminates the run as BlowUp.

    Returns
    -------
    Trajectory sampled every DEFAULT_SAMPLE_SPACING in t, with
    termination ReachedEnd, BlowUp (threshold crossed, trajectory
    truncated at the crossing) or NonPositive (w hit zero; terminal
    sample at the crossing, its w clamped at 0), and the count of
    rejected steps.

    Raises
    ------
    IntegrationUnderflow
        if the controller collapses the step: the outcome is then
        undetermined and never silently truncated.
    OverflowError
        ("math range error") if w^p overflows a double at a stage.

    One call of the step kernel runs the step loop, ends the orbit at its
    crossing, and writes the uniform samples from each step's dense
    output as the step is accepted.  It runs in the compiled kernels of
    _dp5.c where they build, else in its Python twin in _dp5; the two paths
    give the same bits.
    """
    prm = _step_params(t0, t1, tol, coeffs, blowup_threshold)
    st = np.array(_start(initial, t0, t1, tol, coeffs))
    status, segs, rejected, times, states = _dp5.kernels().steps(st, prm)
    return _trajectory(status, st, rejected, times, states, segs)


def _integrate_each(
    initials: Sequence[OdeState],
    t0: float,
    t1: float,
    tol: float,
    coeffs: CoefficientSet,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> list[Trajectory | Exception]:
    """integrate from each of the initials over one span, in one call of the
    batch step kernel: per start, the Trajectory integrate returns, without
    its dense segments, or the exception integrate raises.  A tol or span
    integrate refuses is refused for the whole call.

    The compiled kernel steps the starts in one share per CPU the process
    may use, each on a thread of its own; the bits do not depend on the
    split.  A trajectory of the batch has no dense output: rhs_evals reads
    0, and h_min and h_max NaN.
    """
    prm = _step_params(t0, t1, tol, coeffs, blowup_threshold)
    out: list[Trajectory | Exception] = [None] * len(initials)
    rows, started = [], []
    for i, initial in enumerate(initials):
        try:
            rows.append(_start(initial, t0, t1, tol, coeffs))
            started.append(i)
        except (ValueError, OverflowError) as err:
            out[i] = err
    st = np.array(rows).reshape(-1, _dp5.ST_LEN)
    for i, row, (status, rejected, times, states) in zip(
            started, st, _dp5.kernels().orbits(st, prm)):
        try:
            out[i] = _trajectory(status, row, rejected, times, states,
                                 np.empty((0, _dp5.SEGMENT_COLUMNS)))
        except (ArithmeticError, ValueError, IntegrationUnderflow) as err:
            out[i] = err
    return out


def _step_params(t0: float, t1: float, tol: float, coeffs: CoefficientSet,
                 blowup_threshold: float) -> np.ndarray:
    # prm as _dp5._steps_py reads it, for a tol and a span integrate takes;
    # the direction follows from t0 and t1.
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"time span must be finite, got t0={t0!r}, t1={t1!r}")
    if t0 == t1:
        raise ValueError("need t0 != t1")
    return np.array(
        [t1, tol, tol * 1e-2, coeffs.p, coeffs.a0, coeffs.a1, coeffs.a2, coeffs.a3,
         blowup_threshold, t0, DEFAULT_SAMPLE_SPACING]
    )


def _start(initial: OdeState, t0: float, t1: float, tol: float,
           coeffs: CoefficientSet) -> list[float]:
    # st as _dp5._steps_py reads it, for a start integrate takes: t0, the
    # state, the field there, the first step and err_prev 1.0.
    if not initial.finite:
        raise ValueError("initial state must be finite")
    if initial.w0 < 0.0:
        raise NonPositiveState(f"initial w={initial.w0!r} < 0")
    f = _rhs(initial, coeffs)
    return [t0, *initial, *f, _initial_step(initial, f, abs(t1 - t0), tol, tol * 1e-2), 1.0]


def _trajectory(status: int, st: np.ndarray, rejected: int, times: np.ndarray,
                states: np.ndarray, segments: np.ndarray) -> Trajectory:
    # The orbit a step kernel's status ends with, or integrate's exception.
    if status == _dp5.UNDERFLOW:
        raise IntegrationUnderflow(f"step size underflow at t={st[0]:.6g}; outcome undetermined")
    if status == _dp5.OVERFLOW:
        raise OverflowError("math range error")
    return Trajectory(times=times, states=states, termination=_TERMINATION[status],
                      segments=segments, rejected=rejected)


@dataclass(frozen=True)
class LimitClass:
    """Outcome of backward classification against the two equilibria."""

    tag: str
    terminal_value: float
    window_variation: float


def classify_limit(
    traj: Trajectory,
    wstar: float | None,
    margin: float = DEFAULT_MARGIN,
    window: float = DEFAULT_WINDOW,
) -> LimitClass:
    """Classify a backward trajectory as zero / equilibrium wstar / blow-up.

    wstar is fixed_points(coeffs)[1], or None where there is none.  Early
    terminations decide immediately: a threshold exit is BlowUp and a zero
    crossing is ConvergesToZero (a nonnegative solution touching zero has
    left the basin of the positive equilibrium for good, which is the
    removable branch).  Otherwise the final `window` time units must sit
    inside the margin-tube of one equilibrium, with the variation over the
    window also below margin for the equilibrium class.  A margin or window
    not > 0 (NaN included), or a margin above wstar/2, is a ValueError.
    """
    if not (margin > 0.0 and window > 0.0):
        raise ValueError("margin and window must be positive")
    too_wide = "" if wstar is None else _wide_margin(wstar, margin)
    if too_wide:
        raise ValueError(too_wide)
    w_end = float(traj.states[-1, 0])
    wvals_window = traj.states[np.abs(traj.times - traj.t_end) <= window, 0]
    variation = float(wvals_window.max() - wvals_window.min())  # t_end is always in the window

    if traj.termination == BLOW_UP:
        return LimitClass(tag=BLOW_UP, terminal_value=w_end, window_variation=variation)
    if traj.termination == NON_POSITIVE:
        return LimitClass(tag=CONVERGES_TO_ZERO, terminal_value=w_end, window_variation=variation)

    if traj.span < 2.0 * window:
        raise ValueError(
            f"trajectory spans {traj.span:.3g} time units, need at least {2.0 * window:.3g}"
        )
    if (wvals_window < margin).all():
        return LimitClass(tag=CONVERGES_TO_ZERO, terminal_value=w_end, window_variation=variation)
    near = wstar is not None and (np.abs(wvals_window - wstar) < margin).all()
    if near and variation < margin:
        return LimitClass(
            tag=CONVERGES_TO_FIXED_POINT, terminal_value=w_end, window_variation=variation
        )
    return LimitClass(tag=UNDETERMINED, terminal_value=w_end, window_variation=variation)
