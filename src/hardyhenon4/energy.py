"""The monotone energy of the log-variable flow and its audits.

The flow is that of Delta^2 only (m = 2 fixed).  For radial w the energy
per unit sphere measure is

    e(y) = w3 w1 - w2^2/2 + a3 w2 w1 + a2 w1^2/2 + a0 w0^2/2 - w0^{p+1}/(p+1),

and differentiating along the flow (substituting w4 from the equation)
collapses everything except

    de/dt = a3 w2^2 - a1 w1^2,

so e decreases in t below the critical exponent (a3 < 0, a1 > 0), is
conserved exactly at it (a1 = a3 = 0), and increases above it.  Note the
-w2^2/2 term: it is forced by the rate law, since any first integral must
have its w3-dependence enter through w3 w1 - w2^2/2 for the w3 w2 and
w1 w2 cross terms to cancel.  E multiplies e by |S^{n-1}|; energy()
returns E as a float at one state, or as an array over a (4, k) stack,
which the energy kernel of _dp5 evaluates in one pass; the audit kernel
of _dp5 runs audit_monotonicity's energies and maxima in one pass too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _dp5
from .params import CoefficientSet, SUPERCRITICAL
from .transform import RadialJet, from_log, to_log
from .dynamics import DEFAULT_SAMPLE_SPACING, Trajectory, _wpow


@cache
def sphere_measure(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2), by the closed form."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class MonotonicityAudit:
    """Worst monotonicity violation and worst rate-law mismatch.

    max_violation is the largest increment of E between consecutive audited
    samples, in increasing t, in the direction the regime forbids (increase
    below/at critical, decrease above), after subtracting a few-ulp
    floating-point allowance per increment (_dp5.ULP_ALLOWANCE times the
    larger |E|, or 1).  rate_mismatch is max |dE/dt_fd - rate| / (1 + |rate|)
    with centered differences at step _dp5.FD_STEP on dense resamples.
    Both start at 0.0; a NaN energy or rate makes the maximum it enters NaN.
    """

    max_violation: float
    rate_mismatch: float

    def __post_init__(self) -> None:
        if self.max_violation < 0.0 or self.rate_mismatch < 0.0:
            raise ValueError("audit fields must be nonnegative")


def energy(state, coeffs: CoefficientSet) -> float | np.ndarray:
    """E = |S^{n-1}| e at one state, or at each column of a (4, k) stack such as
    traj.states.T; angular contributions vanish in the radial slice.

    A stack goes to the energy kernel of _dp5, which reads traj.states.T
    in place and keeps the order of operations of the expression below, so
    each column gets the bits of a call at that state.
    """
    w0, w1, w2, w3 = state
    if not (isinstance(w0, float) or np.ndim(w0) == 0):
        return _dp5.kernels().energy(
            state, coeffs.a0, coeffs.a2, coeffs.a3, coeffs.p, sphere_measure(coeffs.n)
        )
    bracket = (
        w3 * w1
        - 0.5 * w2 * w2
        + coeffs.a3 * w2 * w1
        + 0.5 * coeffs.a2 * w1 * w1
        + 0.5 * coeffs.a0 * w0 * w0
        - _wpow(w0, coeffs.p + 1.0) / (coeffs.p + 1.0)
    )
    return sphere_measure(coeffs.n) * bracket


def energy_rate(state, coeffs: CoefficientSet) -> float | np.ndarray:
    """Exact dE/dt along the flow: |S^{n-1}| (a3 w2^2 - a1 w1^2), state as for energy."""
    _, w1, w2, _ = state
    return sphere_measure(coeffs.n) * (coeffs.a3 * w2 * w2 - coeffs.a1 * w1 * w1)


def audit_monotonicity(traj: Trajectory, coeffs: CoefficientSet) -> MonotonicityAudit:
    """Check the monotone direction and the rate law along one trajectory.

    The audit reads the stored samples that lie on the uniform spacing,
    where they equal the dense output: every sample but the end point,
    and the end point too where it is the grid time t0 + sgn (k - 1) h of
    its index, as the step kernel and uniform_times lay the grid out.  The
    rate law is checked at the samples whose finite-difference stencil
    lies in the span; one dense read gives the whole stencil, and the audit
    kernel of _dp5 evaluates every energy and both maxima in one pass.
    """
    times = traj.times
    if len(times) < 2:
        raise ValueError("trajectory too short to audit")
    backward = bool(times[1] < times[0])
    sgn = -1.0 if backward else 1.0
    k = len(times)
    if traj.t_end != traj.t_start + sgn * (k - 1) * DEFAULT_SAMPLE_SPACING:
        k -= 1
    if k < 100:
        raise ValueError(f"need at least 100 samples to audit, got {k}")

    # The audited times in increasing t; those whose stencil lies in the
    # span are a run of them, from first to stop.
    t_inc = times[k - 1 :: -1] if backward else times[:k]
    lo, hi = min(traj.t_start, traj.t_end), max(traj.t_start, traj.t_end)
    step = _dp5.FD_STEP
    first, stop = 0, k
    while first < stop and t_inc[first] - step < lo:
        first += 1
    while stop > first and t_inc[stop - 1] + step > hi:
        stop -= 1
    t_in = t_inc[first:stop]
    stencil = traj.sample(np.concatenate((t_in + step, t_in - step)))
    max_violation, mismatch = _dp5.kernels().audit(
        traj.states[:k], backward, stencil, first, coeffs.a0, coeffs.a1, coeffs.a2,
        coeffs.a3, coeffs.p, sphere_measure(coeffs.n), coeffs.regime == SUPERCRITICAL,
    )
    return MonotonicityAudit(max_violation=max_violation, rate_mismatch=mismatch)


def scaling_check(traj: Trajectory, lam: float, coeffs: CoefficientSet) -> float:
    """Verify the scaling identity for u_lam(x) = lam^B u(lam x).

    In log variables the scaling is exactly time translation by ln(lam),
    so the check routes one side through physical space: the w-jet at
    t + ln(lam) is pulled back to a u-jet, rescaled by powers of lam, and
    pushed forward again before comparing energies.  The result is zero
    up to floating-point rounding of the transform chain.
    """
    if lam <= 0.0:
        raise ValueError(f"need lam > 0, got {lam!r}")
    if lam == 1.0:
        return 0.0
    s = math.log(lam)
    lo = min(traj.t_start, traj.t_end)
    hi = max(traj.t_start, traj.t_end)
    lo_olap = max(lo, lo - s)
    hi_olap = min(hi, hi - s)
    if hi_olap - lo_olap < 0.1:
        raise ValueError(
            f"overlap of [{lo:.3g}, {hi:.3g}] with its ln(lam)={s:.3g} shift is too short"
        )
    B = coeffs.B
    k = 200
    ts = lo_olap + (hi_olap - lo_olap) * np.arange(k + 1) / k + s
    shifted = traj.sample(ts).T
    jet = from_log(ts, shifted, B)
    scaled = RadialJet(
        r=jet.r / lam,
        u0=lam**B * jet.u0,
        u1=lam ** (B + 1.0) * jet.u1,
        u2=lam ** (B + 2.0) * jet.u2,
        u3=lam ** (B + 3.0) * jet.u3,
    )
    _, state = to_log(scaled, B)
    return float(np.max(np.abs(energy(state, coeffs) - energy(shifted, coeffs))))
