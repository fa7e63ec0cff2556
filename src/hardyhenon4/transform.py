"""The Emden-Fowler change of variables between physical radial jets of u
and log-variable jets of w, plus the radial Laplacian in w-coordinates.

With t = ln r and w(t) = e^{Bt} u(e^t), each t-derivative of w is a fixed
lower-triangular combination of (u, r u', r^2 u'', r^3 u''') scaled by r^B,
and conversely.  Both direction matrices are hard-coded closed forms, so
the round trip is exact up to floating-point rounding.  Jets stop at order
three: the fourth derivative is supplied by the differential equation and
never transported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _dp5
from .params import CoefficientSet


# Every transcendental on a table path comes from libm: numpy's SIMD
# kernels, picked per CPU at run time, differ from it in the last bit on
# some arguments, so tables would follow the machine.  An array goes
# through the libm loops of _dp5.c where they build, else through their
# twins in _dp5; either raises where math's function would.
def _exp(x):
    """math.exp(x) for a float, else elementwise on an array."""
    return math.exp(x) if np.ndim(x) == 0 else _dp5.kernels().exp(x)


def _log(x):
    """math.log(x) for a float, else elementwise on an array."""
    return math.log(x) if np.ndim(x) == 0 else _dp5.kernels().log(x)


@dataclass(frozen=True)
class RadialJet:
    """u and its first three radial derivatives at a radius r > 0, or at each
    of k radii when every field is a length-k array."""

    r: float | np.ndarray
    u0: float | np.ndarray
    u1: float | np.ndarray
    u2: float | np.ndarray
    u3: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.greater(self.r, 0.0)):
            raise ValueError(f"radius must be positive, got r={self.r!r}")


class OdeState(NamedTuple):
    """w and its first three t-derivatives at one log-time."""

    w0: float
    w1: float
    w2: float
    w3: float

    @property
    def finite(self) -> bool:
        return all(map(math.isfinite, self))


def to_log(jet: RadialJet, B: float) -> tuple[float | np.ndarray, OdeState]:
    """Map a physical jet at radius r to (t, w-jet) with t = ln r; array
    fields give k times and a w-jet of length-k arrays.

    Writing D = r d/dr, the forward map is w_k = r^B (B + D)^k u, expanded
    below into radial derivatives.
    """
    r = jet.r
    t = _log(r)
    rB = _exp(B * t)
    ru1 = r * jet.u1
    r2u2 = r * r * jet.u2
    r3u3 = r * r * r * jet.u3
    w0 = rB * jet.u0
    w1 = rB * (B * jet.u0 + ru1)
    w2 = rB * (B * B * jet.u0 + (2.0 * B + 1.0) * ru1 + r2u2)
    w3 = rB * (
        B**3 * jet.u0
        + (3.0 * B * B + 3.0 * B + 1.0) * ru1
        + 3.0 * (B + 1.0) * r2u2
        + r3u3
    )
    return t, OdeState(w0, w1, w2, w3)


def _scaled_jet(state: OdeState, B: float) -> tuple[float, float, float, float]:
    """r^{B+i} u^(i)(r) for i = 0..3: the inverse transform's brackets in w."""
    w0, w1, w2, w3 = state
    return (
        w0,
        w1 - B * w0,
        w2 - (2.0 * B + 1.0) * w1 + B * (B + 1.0) * w0,
        w3
        - 3.0 * (B + 1.0) * w2
        + (3.0 * B * B + 6.0 * B + 2.0) * w1
        - B * (B + 1.0) * (B + 2.0) * w0,
    )


def from_log(t, state, B: float) -> RadialJet:
    """Invert to_log: recover the u-jet at r = e^t from a w-jet, or at k times
    from a (4, k) stack of w-jets."""
    b0, b1, b2, b3 = _scaled_jet(state, B)
    r = _exp(t)
    rmB = _exp(-B * t)
    u0 = rmB * b0
    u1 = rmB / r * b1
    u2 = rmB / (r * r) * b2
    u3 = rmB / (r * r * r) * b3
    return RadialJet(r=r, u0=u0, u1=u1, u2=u2, u3=u3)


def neg_laplacian_radial(t, state, coeffs: CoefficientSet) -> float | np.ndarray:
    """-Delta u at r = e^t from the w-jet, or at k times from a (4, k) stack of jets.

    Substituting the inverse transform into u'' + (n-1)u'/r gives

        -Delta u = r^{-B-2} [ -w2 - (n-2-2B) w1 + B(n-2-B) w0 ],

    positivity of which is the super-polyharmonicity property for m = 2.
    """
    n = float(coeffs.n)
    B = coeffs.B
    w0, w1, w2, _ = state
    bracket = -w2 - (n - 2.0 - 2.0 * B) * w1 + B * (n - 2.0 - B) * w0
    return _exp(-(B + 2.0) * t) * bracket
