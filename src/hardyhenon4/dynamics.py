"""The transformed fourth-order equation as an autonomous dynamical system.

State is the 4-jet y = (w, w', w'', w''') in log-radius t; the flow is

    y' = (w', w'', w''', w^p - a3 w''' - a2 w'' - a1 w' - a0 w).

Backward time (t decreasing) walks toward the singularity r -> 0.  The two
equilibria are w = 0 and w = a0^{1/(p-1)}; trajectories are produced by an
embedded Dormand-Prince 5(4) pair with PI step-size control and cubic
Hermite dense output, and are classified against those equilibria.  A
trajectory is stored as arrays (times, a (k, 4) state array and an
(m, 18) segment array); Trajectory.sample(ts) evaluates the dense output
at a whole array of times at once; a closed-form orbit evaluates its
analytic(ts) instead, which maps k times to a (k, 4) state array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _dp5
from .params import CoefficientSet
from .transform import OdeState, _exp, _exp_py, _log_py

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

_FIXED_POINT_SCAN_ULPS = 2048
# Radii, in ulps, of the rings fixed_points scans; the last is the window.
_FIXED_POINT_RINGS = (16, 128, _FIXED_POINT_SCAN_ULPS)


class NonPositiveState(ValueError):
    """Raised by vector_field when w < 0: the nonlinearity w^p is undefined."""


class IntegrationUnderflow(RuntimeError):
    """Step size collapsed; the integration outcome is undetermined."""


def _wpow(w, q: float):
    # w^q = exp(q log w) where w > 0, else 0, for a float or an array: one
    # power path for the flow, fixed points and energy, so bits agree.
    if isinstance(w, float) or np.ndim(w) == 0:  # np.ndim of a float builds an array
        return math.exp(q * math.log(w)) if w > 0.0 else 0.0
    return _dp5.kernels().wpow(w, q)


def _wpow_py(w: np.ndarray, q: float) -> np.ndarray:
    # _wpow of an array, through the libm maps; hh_wpow in _dp5.c is this
    # map in C, in one pass.
    pos = w > 0.0
    return _exp_py(q * _log_py(np.where(pos, w, 1.0))) * pos


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
    rings of +-16, +-128 and +-2048 ulps, each side walking outward.
    Before each ring it stops if the best residual is an exact zero and
    lies strictly nearer the seed than the next unscanned ulp on both
    sides: no ulp left can beat it.  An ulp whose residual overflows a
    double cannot be the minimizer and is skipped; if the seed's own
    residual overflows, OverflowError names it.
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


def _scan_py(seed: float, best_g: float, a0: float, p: float) -> tuple[float, int]:
    # The ring scan of fixed_points around seed, whose residual is best_g:
    # the snapped w and the number of ulps evaluated, the seed included.
    # hh_scan in _dp5.c is this loop in C.
    exp, log, nextafter, inf = math.exp, math.log, math.nextafter, math.inf
    best_w, best_d = seed, 0.0
    lo = hi = seed  # the last ulp scanned below and above the seed
    scanned = 0
    for ring in _FIXED_POINT_RINGS:
        # Below the seed the window ends at 0.0: nothing is left there.
        if (
            best_g == 0.0
            and (lo == 0.0 or best_d < seed - nextafter(lo, 0.0))
            and best_d < nextafter(hi, inf) - seed
        ):
            break
        # The distances are exact (Sterbenz); on a tie in residual and
        # distance the lower w wins, hence <= below and < above.
        for _ in range(ring - scanned):
            lo = nextafter(lo, 0.0)
            g = abs((exp(p * log(lo)) if lo > 0.0 else 0.0) - a0 * lo)
            if g <= best_g and (g < best_g or seed - lo <= best_d):
                best_w, best_g, best_d = lo, g, seed - lo
        for _ in range(ring - scanned):
            hi = nextafter(hi, inf)
            try:
                g = abs(exp(p * log(hi)) - a0 * hi)
            except OverflowError:
                continue
            if g <= best_g and (g < best_g or hi - seed < best_d):
                best_w, best_g, best_d = hi, g, hi - seed
        scanned = ring
    return best_w, 1 + 2 * scanned


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

    def residual(self) -> float:
        """Relative defect between the roots multiplied out and char_coeffs."""
        poly = np.poly(np.array(self.roots))
        ref = np.array(self.char_coeffs)
        return float(np.max(np.abs(poly.real - ref)) / (1.0 + np.max(np.abs(ref))))


def linearize(point: float, coeffs: CoefficientSet) -> LinearizationReport:
    """Characteristic polynomial and roots of the linearization at a point.

    The polynomial is mu^4 + a3 mu^3 + a2 mu^2 + a1 mu + (a0 - p point^{p-1});
    roots come from numpy's balanced companion eigenvalues, which stay
    accurate when root patterns collide near the critical exponent.
    """
    c0 = coeffs.a0 - coeffs.p * _wpow(point, coeffs.p - 1.0)
    cs = (1.0, coeffs.a3, coeffs.a2, coeffs.a1, c0)
    roots = np.roots(np.array(cs))
    roots = tuple(sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag)))
    n_right = sum(1 for z in roots if z.real > 0.0)
    return LinearizationReport(char_coeffs=cs, roots=roots, n_unstable_backward=n_right)


# Cubic Hermite evaluation of one step's dense segment (ta, tb, ya[0..3],
# yb[0..3], fa[0..3], fb[0..3]) at a float t, or of 18 segment columns at
# an equal-length array t: numpy rounds like Python floats, so bits agree.
# hermite in _dp5.c is this formula in C.
def _hermite(t, seg):
    ta, tb, ya0, ya1, ya2, ya3, yb0, yb1, yb2, yb3, fa0, fa1, fa2, fa3, fb0, fb1, fb2, fb3 = seg
    h = tb - ta
    s = (t - ta) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = (s3 - 2.0 * s2 + s) * h
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = (s3 - s2) * h
    return (
        h00 * ya0 + h10 * fa0 + h01 * yb0 + h11 * fb0,
        h00 * ya1 + h10 * fa1 + h01 * yb1 + h11 * fb1,
        h00 * ya2 + h10 * fa2 + h01 * yb2 + h11 * fb2,
        h00 * ya3 + h10 * fa3 + h01 * yb3 + h11 * fb3,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A computed orbit: uniform samples plus dense per-step segments.

    times, shape (k,), run strictly monotonically (decreasing for backward
    runs); states, shape (k, 4), holds the 4-jet at each time.  The
    stored samples lie DEFAULT_SAMPLE_SPACING apart except for the
    terminal point.  segments, shape (m, 18), holds one row per accepted
    step (see _hermite); rejected counts the steps the controller turned
    down on the way; rhs_evals, h_min and h_max follow from the two.
    sample(ts) evaluates the dense representation at every time of ts in
    the covered span, so audits can resample at their own stencils; at a
    stored sample other than the terminal point it returns the stored
    state.  A closed-form orbit carries analytic, which maps a 1-D array
    of times to their (len(ts), 4) states.
    """

    times: np.ndarray
    states: np.ndarray
    termination: str
    segments: np.ndarray = field(repr=False, default_factory=lambda: np.empty((0, 18)))
    analytic: Callable[[np.ndarray], np.ndarray] | None = field(repr=False, default=None)
    rejected: int = 0

    def __post_init__(self) -> None:
        for name in ("times", "states", "segments"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.states.shape != (len(self.times), 4):
            raise ValueError("times and states must have equal length")
        if self.segments.ndim != 2 or self.segments.shape[1] != 18:
            raise ValueError(f"segments must have shape (m, 18), got {self.segments.shape}")
        diffs = np.diff(self.times)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("trajectory times must be strictly monotone")
        if not np.all(np.isfinite(self.states)):
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
        outside = ~self.covers(ts)
        if outside.any():
            t = float(ts[outside][0])
            raise ValueError(f"t={t!r} outside the covered span [{self.t_start}, {self.t_end}]")
        if self.analytic is not None:
            return self.analytic(ts)
        if not len(self.segments):
            raise ValueError("trajectory carries no dense segments")
        return _dp5.kernels().dense(self.segments, ts)


def _dense_py(segments: np.ndarray, ts: np.ndarray) -> np.ndarray:
    # The (len(ts), 4) dense output of the segment rows at the 1-D ts: the
    # first step ending at or past t holds it; a t within covers()'s slack
    # past the last end falls to the last step.  hh_dense in _dp5.c is
    # this function in C.
    sgn = -1.0 if segments[0, 1] < segments[0, 0] else 1.0
    i = np.searchsorted(sgn * segments[:, 1], sgn * ts)
    return np.stack(_hermite(ts, segments[np.minimum(i, len(segments) - 1)].T), axis=1)


def uniform_times(t0: float, t1: float) -> np.ndarray:
    """t0 + sgn k h, k = 0 .. floor(|t1 - t0| / h), toward t1; h = DEFAULT_SAMPLE_SPACING."""
    h = DEFAULT_SAMPLE_SPACING
    sgn = 1.0 if t1 > t0 else -1.0
    return t0 + sgn * np.arange(int(abs(t1 - t0) / h) + 1) * h


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


# Dormand-Prince 5(4) tableau; the flow is autonomous, so the nodes c_i
# never enter.
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
# Difference between the 5th- and 4th-order solutions (error estimator).
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _rhs(y, coeffs: CoefficientSet):
    # Right-hand side with the pow base clipped at zero; sign crossings are
    # handled by the termination logic, so a trial stage poking below zero
    # is tolerated without raising.  _steps_py and _dp5.c's hh_steps inline it.
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
    # is an exact equilibrium and the whole span can be taken at once.
    d0 = math.sqrt(sum((y0[i] / (atol + rtol * abs(y0[i]))) ** 2 for i in range(4)) / 4.0)
    d1 = math.sqrt(sum((f0[i] / (atol + rtol * abs(y0[i]))) ** 2 for i in range(4)) / 4.0)
    if d1 == 0.0:
        return span
    if d0 < 1e-5:
        h = 1e-6
    else:
        h = 0.01 * d0 / d1
    return min(h, span)


def _bisect_py(seg: tuple, level: float) -> tuple[float, tuple]:
    """Locate w0 == level inside one dense segment row by bisection: the
    crossing time and the 4-jet there.  bisect in _dp5.c is this loop in C."""
    lo, hi = seg[0], seg[1]
    flo = seg[2] - level
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = _hermite(mid, seg)[0] - level
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
            flo = fmid
        else:
            hi = mid
    tc = 0.5 * (lo + hi)
    return tc, _hermite(tc, seg)


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

    One call of the step kernel runs the step loop and ends the orbit at
    its crossing; the sample fill reads the dense output.  Both run in the
    compiled kernels of _dp5.c where they build, else in _steps_py and
    _dense_py; the two paths give the same bits.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"time span must be finite, got t0={t0!r}, t1={t1!r}")
    if t0 == t1:
        raise ValueError("need t0 != t1")
    if not initial.finite:
        raise ValueError("initial state must be finite")
    if initial.w0 < 0.0:
        raise NonPositiveState(f"initial w={initial.w0!r} < 0")

    rtol, atol = tol, tol * 1e-2
    sgn = 1.0 if t1 > t0 else -1.0
    f = _rhs(initial, coeffs)
    h = _initial_step(initial, f, abs(t1 - t0), rtol, atol)
    # The kernel state (see _steps_py): t, y, the field at y, h, err_prev.
    st = np.array([t0, *initial, *f, h, 1.0])
    prm = np.array(
        [t1, sgn, rtol, atol, coeffs.p, coeffs.a0, coeffs.a1, coeffs.a2, coeffs.a3,
         blowup_threshold]
    )
    kernels = _dp5.kernels()
    status, segs, rejected = kernels.steps(st, prm)
    t, *y = st[:5].tolist()
    if status == _dp5.UNDERFLOW:
        raise IntegrationUnderflow(f"step size underflow at t={t:.6g}; outcome undetermined")

    # Uniform samples from the dense segments, terminal point included.
    times = uniform_times(t0, t)
    states = [[initial], kernels.dense(segs, times[1:])]
    if times[-1] != t:
        times = np.append(times, t)
        states.append([y])
    return Trajectory(
        times=times, states=np.concatenate(states), termination=_TERMINATION[status],
        segments=segs, rejected=rejected,
    )


def _steps_py(st: np.ndarray, prm: np.ndarray) -> tuple[int, np.ndarray, int]:
    """integrate's adaptive loop: a status of _dp5, the (m, 18) rows of the
    accepted steps and the number of rejected steps.

    st (updated in place) holds t, y0..y3, the field at y, h and err_prev;
    prm holds t1, sgn, rtol, atol, p, a0..a3 and the blow-up threshold.
    The status is END at t1; BLOW_UP or NON_POSITIVE after the step whose
    w crossed the threshold or 0.0, with st[:5] moved back to the crossing
    in that step's row (_bisect_py) and w clamped at 0.0 on a zero
    crossing; or UNDERFLOW when the step collapses at st[0].  An
    overflowing w^p raises OverflowError.  hh_steps in _dp5.c is this
    loop in C.
    """
    t, y0, y1, y2, y3, k10, k11, k12, k13, h, err_prev = st.tolist()
    t1, sgn, rtol, atol, p, a0, a1, a2, a3, blowup_threshold = prm.tolist()
    rows: list[tuple] = []
    rejected = 0
    status = _dp5.END

    # The step below is the Dormand-Prince tableau written out per stage
    # and per component, with the right-hand side inlined: k<s><j> is
    # component j of stage s, u is component 0 of the stage state (its
    # components 1..3 are k<s>0..k<s>2).  Every tableau sum keeps the
    # left-to-right order, the leading 0.0 and the zero weights of
    # sum(_A[i][m] * k[m][j] for m in range(i)), so each rounding, and the
    # sign of each zero, is that of the generic stepper over the tableau
    # that tests/test_dynamics.py keeps as the reference.
    exp, log, isfinite = math.exp, math.log, math.isfinite
    _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
        a61, a62, a63, a64, a65) = _A
    b1, b2, b3, b4, b5, b6 = _B5
    e1, e2, e3, e4, e5, e6, e7 = _E

    while sgn * (t1 - t) > 0.0:
        h = min(h, abs(t1 - t))
        if h < 1e-13 * max(1.0, abs(t)):
            status = _dp5.UNDERFLOW
            break
        hs = sgn * h
        u = y0 + hs * (0.0 + a21 * k10)
        k20 = y1 + hs * (0.0 + a21 * k11)
        k21 = y2 + hs * (0.0 + a21 * k12)
        k22 = y3 + hs * (0.0 + a21 * k13)
        k23 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k22 - a2 * k21 - a1 * k20 - a0 * u

        u = y0 + hs * (0.0 + a31 * k10 + a32 * k20)
        k30 = y1 + hs * (0.0 + a31 * k11 + a32 * k21)
        k31 = y2 + hs * (0.0 + a31 * k12 + a32 * k22)
        k32 = y3 + hs * (0.0 + a31 * k13 + a32 * k23)
        k33 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k32 - a2 * k31 - a1 * k30 - a0 * u

        u = y0 + hs * (0.0 + a41 * k10 + a42 * k20 + a43 * k30)
        k40 = y1 + hs * (0.0 + a41 * k11 + a42 * k21 + a43 * k31)
        k41 = y2 + hs * (0.0 + a41 * k12 + a42 * k22 + a43 * k32)
        k42 = y3 + hs * (0.0 + a41 * k13 + a42 * k23 + a43 * k33)
        k43 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k42 - a2 * k41 - a1 * k40 - a0 * u

        u = y0 + hs * (0.0 + a51 * k10 + a52 * k20 + a53 * k30 + a54 * k40)
        k50 = y1 + hs * (0.0 + a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41)
        k51 = y2 + hs * (0.0 + a51 * k12 + a52 * k22 + a53 * k32 + a54 * k42)
        k52 = y3 + hs * (0.0 + a51 * k13 + a52 * k23 + a53 * k33 + a54 * k43)
        k53 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k52 - a2 * k51 - a1 * k50 - a0 * u

        u = y0 + hs * (0.0 + a61 * k10 + a62 * k20 + a63 * k30 + a64 * k40 + a65 * k50)
        k60 = y1 + hs * (0.0 + a61 * k11 + a62 * k21 + a63 * k31 + a64 * k41 + a65 * k51)
        k61 = y2 + hs * (0.0 + a61 * k12 + a62 * k22 + a63 * k32 + a64 * k42 + a65 * k52)
        k62 = y3 + hs * (0.0 + a61 * k13 + a62 * k23 + a63 * k33 + a64 * k43 + a65 * k53)
        k63 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k62 - a2 * k61 - a1 * k60 - a0 * u

        # The 5th-order solution; its derivative is stage 7 (first same as last).
        n0 = y0 + hs * (0.0 + b1 * k10 + b2 * k20 + b3 * k30 + b4 * k40 + b5 * k50 + b6 * k60)
        n1 = y1 + hs * (0.0 + b1 * k11 + b2 * k21 + b3 * k31 + b4 * k41 + b5 * k51 + b6 * k61)
        n2 = y2 + hs * (0.0 + b1 * k12 + b2 * k22 + b3 * k32 + b4 * k42 + b5 * k52 + b6 * k62)
        n3 = y3 + hs * (0.0 + b1 * k13 + b2 * k23 + b3 * k33 + b4 * k43 + b5 * k53 + b6 * k63)
        # Stage 7 comes before the finiteness check, as in the generic stepper:
        # exp raises OverflowError when a finite n0 is huge.
        k70, k71, k72 = n1, n2, n3
        k73 = (exp(p * log(n0)) if n0 > 0.0 else 0.0) - a3 * n3 - a2 * n2 - a1 * n1 - a0 * n0
        if not (isfinite(n0) and isfinite(n1) and isfinite(n2) and isfinite(n3)):
            h *= 0.25
            rejected += 1
            continue

        # RMS over components of err / (atol + rtol max(|y|, |y_new|)).
        q0 = hs * (0.0 + e1 * k10 + e2 * k20 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60
                   + e7 * k70) / (atol + rtol * max(abs(y0), abs(n0)))
        q1 = hs * (0.0 + e1 * k11 + e2 * k21 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61
                   + e7 * k71) / (atol + rtol * max(abs(y1), abs(n1)))
        q2 = hs * (0.0 + e1 * k12 + e2 * k22 + e3 * k32 + e4 * k42 + e5 * k52 + e6 * k62
                   + e7 * k72) / (atol + rtol * max(abs(y2), abs(n2)))
        q3 = hs * (0.0 + e1 * k13 + e2 * k23 + e3 * k33 + e4 * k43 + e5 * k53 + e6 * k63
                   + e7 * k73) / (atol + rtol * max(abs(y3), abs(n3)))
        norm = math.sqrt((0.0 + q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / 4.0)
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm**-0.2)
            rejected += 1
            continue

        tn = t + hs
        rows.append((t, tn, y0, y1, y2, y3, n0, n1, n2, n3, k10, k11, k12, k13, k70, k71, k72, k73))
        t, y0, y1, y2, y3 = tn, n0, n1, n2, n3
        k10, k11, k12, k13 = k70, k71, k72, k73

        if y0 > blowup_threshold:
            status = _dp5.BLOW_UP
            t, (y0, y1, y2, y3) = _bisect_py(rows[-1], blowup_threshold)
            break
        if y0 < 0.0:
            status = _dp5.NON_POSITIVE
            t, (y0, y1, y2, y3) = _bisect_py(rows[-1], 0.0)
            y0 = max(y0, 0.0)
            break

        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * norm**-_PI_ALPHA * err_prev**_PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = norm
        h *= factor

    st[:] = (t, y0, y1, y2, y3, k10, k11, k12, k13, h, err_prev)
    return status, np.array(rows).reshape(-1, 18), rejected


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
    if np.all(wvals_window < margin):
        return LimitClass(tag=CONVERGES_TO_ZERO, terminal_value=w_end, window_variation=variation)
    near = wstar is not None and np.all(np.abs(wvals_window - wstar) < margin)
    if near and variation < margin:
        return LimitClass(
            tag=CONVERGES_TO_FIXED_POINT, terminal_value=w_end, window_variation=variation
        )
    return LimitClass(tag=UNDETERMINED, terminal_value=w_end, window_variation=variation)
