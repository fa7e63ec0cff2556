"""Problem parameters, critical exponents, and the coefficient algebra of the
transformed radial equation.

The package treats Delta^2 only: the polyharmonic order is fixed at m = 2,
so every 2m of the paper is written here as the number 4.  Everything here
is closed-form polynomial/rational algebra in (n, alpha, p).
The Emden-Fowler substitution w(t) = r^B u(r), t = ln r, with
B = (4+alpha)/(p-1), turns the radial equation Delta^2 u = r^alpha u^p into

    w'''' + A3 w''' + A2 w'' + A1 w' + A0 w = w^p,

and the signs of (A0, A1, A3) split the exponent range into the regimes
below/at/above the Hardy-Sobolev critical exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Regime tags for RegimeReport / CoefficientSet.
SUBCRITICAL = "Subcritical"
CRITICAL = "Critical"
SUPERCRITICAL = "Supercritical"
OUT_OF_RANGE = "OutOfRange"

# p counts as critical when within this absolute distance of the
# Hardy-Sobolev exponent.  Chosen over testing a1, a3 for smallness to
# avoid circularity with the sign checks.
CRITICALITY_TOL = 1e-12


@dataclass(frozen=True)
class ProblemParams:
    """The triple (n, alpha, p) of Delta^2 u = |x|^alpha u^p (m = 2 fixed)."""

    n: int
    alpha: float
    p: float

    def __post_init__(self) -> None:
        if not -math.inf < self.n < math.inf:
            raise ValueError(f"need finite n, got n={self.n}")
        if int(self.n) != self.n:
            raise ValueError(f"dimension n must be an integer, got {self.n!r}")
        if self.n <= 4:
            raise ValueError(f"need n > 2m, got n={self.n}, m=2")
        if not self.alpha > -4.0:
            raise ValueError(f"need alpha > -4.0, got alpha={self.alpha}")
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got p={self.p}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"need finite alpha, got alpha={self.alpha}")
        if not math.isfinite(self.p):
            raise ValueError(f"need finite p, got p={self.p}")

    @property
    def B(self) -> float:
        return (4.0 + self.alpha) / (self.p - 1.0)


@dataclass(frozen=True)
class ExponentSet:
    """The four critical exponents attached to (n, alpha), m = 2."""

    serrin: float          # (n + alpha) / (n - 4)
    hardy_sobolev: float   # (n + 4 + 2 alpha) / (n - 4)
    sobolev: float         # (n + 4) / (n - 4)
    upper_dichotomy: float     # (n + 4 + alpha) / (n - 4)


@dataclass(frozen=True)
class CoefficientSet:
    """The problem (n, alpha, p) with B and the coefficients A0..A4 of its equation.

    Built by coefficients(), so the fields agree; it is the one problem
    argument of the transform, dynamics, energy and Green functions.  a4
    multiplies the angular Laplacian and is inert in the radial reduction;
    it is carried because the coefficient list is a unit.
    """

    n: int
    alpha: float
    p: float
    B: float
    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    regime: str


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    signs: tuple[str, str, str]  # sign tags of (a0, a1, a3)


def critical_exponents(params: ProblemParams | CoefficientSet) -> ExponentSet:
    """Evaluate the four exponents by their defining rational formulas (reads n, alpha)."""
    n, alpha = params.n, params.alpha
    d = n - 4
    return ExponentSet(
        serrin=(n + alpha) / d,
        hardy_sobolev=(n + 4 + 2 * alpha) / d,
        sobolev=(n + 4) / d,
        upper_dichotomy=(n + 4 + alpha) / d,
    )


def _regime_tag(params: ProblemParams) -> str:
    exps = critical_exponents(params)
    if params.p <= exps.serrin:
        return OUT_OF_RANGE
    if abs(params.p - exps.hardy_sobolev) < CRITICALITY_TOL:
        return CRITICAL
    if params.p < exps.hardy_sobolev:
        return SUBCRITICAL
    return SUPERCRITICAL


def coefficients(params: ProblemParams) -> CoefficientSet:
    """B and A0..A4, evaluated exactly as the displayed polynomials in B;
    OverflowError, naming the triple, where one is not a finite double."""
    n = float(params.n)
    B = params.B
    q = n * n - 10.0 * n + 20.0
    try:
        a0 = B**4 - 2.0 * (n - 4.0) * B**3 + q * B**2 + 2.0 * (n - 2.0) * (n - 4.0) * B
        a1 = -4.0 * B**3 + 6.0 * (n - 4.0) * B**2 - 2.0 * q * B - 2.0 * (n - 2.0) * (n - 4.0)
        a2 = 6.0 * B**2 - 6.0 * (n - 4.0) * B + q
        a3 = -4.0 * B + 2.0 * n - 8.0
        a4 = 2.0 * B**2 - 2.0 * (n - 4.0) * B - 2.0 * (n - 4.0)
        finite = all(map(math.isfinite, (B, a0, a1, a2, a3, a4)))
    except OverflowError:  # a power B**k itself past a double
        finite = False
    if not finite:
        raise OverflowError(f"coefficients overflow a double at n={n:g}, "
                            f"alpha={params.alpha!r}, p={params.p!r}")
    return CoefficientSet(
        n=params.n, alpha=params.alpha, p=params.p,
        B=B, a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, regime=_regime_tag(params),
    )


def a0_factored(coeffs: CoefficientSet) -> float:
    """A0 in product form B(B+2)(n-2-B)(n-4-B); cross-check for the quartic coeffs.a0."""
    n = float(coeffs.n)
    B = coeffs.B
    return B * (B + 2.0) * (n - 2.0 - B) * (n - 4.0 - B)


def kelvin_dual(coeffs: CoefficientSet) -> CoefficientSet:
    """The coefficient set of the Kelvin-dual problem (n, alpha', p), with
    alpha' = (n-4)p - (n+4) - alpha.

    The Kelvin transform u -> |x|^(4-n) u(x/|x|^2) maps solutions of
    Delta^2 u = |x|^alpha u^p to solutions with alpha'.  In log variables
    B' = n - 4 - B and w'(t) = w(-t): a0 and a2 are kept, a1 and a3 change
    sign.  ValueError where alpha' <= -4, i.e. p at or below the Serrin
    exponent, as ProblemParams refuses it.
    """
    n, p = coeffs.n, coeffs.p
    return coefficients(ProblemParams(n, (n - 4) * p - (n + 4) - coeffs.alpha, p))


def _sign_tag(x: float, scale: float) -> str:
    if abs(x) <= 1e-12 * scale:
        return "0"
    return "+" if x > 0.0 else "-"


def classify_regime(coeffs: CoefficientSet) -> RegimeReport:
    """The regime of coeffs with the sign tags of its (a0, a1, a3).

    The regime places p relative to the Serrin / Hardy-Sobolev exponents;
    OutOfRange means p at or below the Serrin exponent, where the
    dichotomy machinery has no positive equilibrium; the computed signs
    are still reported.  The upper admissibility cap used by sweeps is
    a separate check (see in_dichotomy_window), since the supercritical
    regime is open-ended.
    """
    scale = 1.0 + abs(coeffs.a2)
    signs = (_sign_tag(coeffs.a0, scale), _sign_tag(coeffs.a1, scale), _sign_tag(coeffs.a3, scale))
    return RegimeReport(regime=coeffs.regime, signs=signs)


def in_dichotomy_window(params: ProblemParams | CoefficientSet) -> tuple[bool, str]:
    """Check the hypothesis window for the removable/singular dichotomy.

    Requires -4 < alpha <= 0, serrin < p < (n+4+alpha)/(n-4) and p not
    critical (the m = 2 window).  Returns (ok, reason); reason spells out
    the violated bound with its numeric endpoints so callers can surface
    it verbatim.  Reads n, alpha and p only, so it takes the problem or
    its coefficient set alike.
    """
    exps = critical_exponents(params)
    if params.alpha > 0.0:
        return False, (
            f"alpha={params.alpha:g} is positive; the dichotomy window needs "
            "-4 < alpha <= 0"
        )
    if not exps.serrin < params.p < exps.upper_dichotomy:
        return False, (
            f"p={params.p:g} outside the admissible window "
            f"({exps.serrin:g}, {exps.upper_dichotomy:g}) for n={params.n}, "
            f"alpha={params.alpha:g}"
        )
    if abs(params.p - exps.hardy_sobolev) < CRITICALITY_TOL:
        return False, (
            f"p={params.p:g} sits on the critical exponent "
            f"{exps.hardy_sobolev:g}, excluded from the dichotomy window"
        )
    return True, ""
