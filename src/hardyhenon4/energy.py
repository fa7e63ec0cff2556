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
which the energy kernel of _dp5 evaluates in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _dp5
from .params import CoefficientSet, SUPERCRITICAL
from .transform import RadialJet, from_log, to_log
from .dynamics import Trajectory, _wpow

_FD_STEP = 1e-3
# Per-increment floating-point allowance when auditing monotonicity: a few
# ulps of the energy magnitude, subtracted before calling an increment a
# violation.
_ULP_ALLOWANCE = 4.0 * math.ulp(1.0)


@cache
def sphere_measure(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2), by the closed form."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class MonotonicityAudit:
    """Worst monotonicity violation and worst rate-law mismatch.

    max_violation is the largest increment of E in the direction the
    regime forbids (increase below/at critical, decrease above), after
    subtracting a few-ulp floating-point allowance per increment.
    rate_mismatch is max |dE/dt_fd - rate| / (1 + |rate|) with centered
    differences at step 1e-3 on dense resamples.
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
    where they equal the dense output; only the finite-difference
    stencils resample it.
    """
    if len(traj.times) < 2:
        raise ValueError("trajectory too short to audit")
    k = int(traj.span / abs(traj.times[1] - traj.times[0]))
    # the law is stated for increasing t
    order = np.argsort(traj.times[: k + 1])
    times, states = traj.times[order], traj.states[order]
    if len(times) < 100:
        raise ValueError(f"need at least 100 samples to audit, got {len(times)}")
    evals = energy(states.T, coeffs)
    ea, eb = evals[:-1], evals[1:]
    inc = -(eb - ea) if coeffs.regime == SUPERCRITICAL else (eb - ea)
    allowance = _ULP_ALLOWANCE * np.maximum(np.maximum(np.abs(ea), np.abs(eb)), 1.0)
    max_violation = float(np.max(inc - allowance, initial=0.0))

    lo = min(traj.t_start, traj.t_end)
    hi = max(traj.t_start, traj.t_end)
    inside = (times - _FD_STEP >= lo) & (times + _FD_STEP <= hi)
    t_in = times[inside]
    stencil = traj.sample(np.concatenate((t_in + _FD_STEP, t_in - _FD_STEP))).T
    plus, minus = stencil[:, : len(t_in)], stencil[:, len(t_in) :]
    fd = (energy(plus, coeffs) - energy(minus, coeffs)) / (2.0 * _FD_STEP)
    rate = energy_rate(states[inside].T, coeffs)
    mismatch = float(np.max(np.abs(fd - rate) / (1.0 + np.abs(rate)), initial=0.0))
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
