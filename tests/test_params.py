import math

import pytest
from hypothesis import given, settings, strategies as st

from hardyhenon4.params import (
    CRITICALITY_TOL,
    CRITICAL,
    OUT_OF_RANGE,
    SUBCRITICAL,
    SUPERCRITICAL,
    ProblemParams,
    a0_factored,
    classify_regime,
    coefficients,
    critical_exponents,
    in_dichotomy_window,
    kelvin_dual,
)


def test_exponents_at_6_0():
    exps = critical_exponents(ProblemParams(6, 0.0, 4.0))
    assert exps.serrin == 3.0
    assert exps.hardy_sobolev == 5.0
    assert exps.sobolev == 5.0
    assert exps.upper_dichotomy == 5.0


def test_exponents_handle_negative_alpha():
    exps = critical_exponents(ProblemParams(6, -1.0, 4.0))
    assert exps.serrin == pytest.approx(2.5)
    assert exps.hardy_sobolev == pytest.approx(4.0)
    assert exps.sobolev == pytest.approx(5.0)
    assert exps.upper_dichotomy == pytest.approx(4.5)


def test_coefficients_at_6_0_4():
    c = coefficients(ProblemParams(6, 0.0, 4.0))
    assert c.B == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert c.a0 == pytest.approx(640.0 / 81.0, rel=1e-14)
    assert c.a1 == pytest.approx(176.0 / 27.0, rel=1e-14)
    assert c.a2 == pytest.approx(-28.0 / 3.0, rel=1e-14)
    assert c.a3 == pytest.approx(-4.0 / 3.0, rel=1e-14)
    assert c.a4 == pytest.approx(-52.0 / 9.0, rel=1e-14)
    assert c.regime == SUBCRITICAL


def test_coefficients_at_critical_point_vanish_exactly():
    # B = 1 there, so every a-coefficient is integer arithmetic
    c = coefficients(ProblemParams(6, 0.0, 5.0))
    assert c.a0 == 9.0
    assert c.a1 == 0.0
    assert c.a2 == -10.0
    assert c.a3 == 0.0
    assert c.regime == CRITICAL


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=5, max_value=12),
    alpha=st.floats(min_value=-3.999, max_value=3.999),
    p=st.floats(min_value=1.01, max_value=12.0),
)
def test_a0_factors_as_product_of_roots(n, alpha, p):
    c = coefficients(ProblemParams(n, alpha, p))
    f = a0_factored(c)
    assert abs(c.a0 - f) <= 1e-12 * max(1.0, abs(f))


@pytest.mark.parametrize(
    "n,alpha,p,expected",
    [
        (6, 0.0, 4.0, SUBCRITICAL),
        (6, 0.0, 5.0, CRITICAL),
        (6, 0.0, 5.5, SUPERCRITICAL),
        (6, -1.0, 5.0, SUPERCRITICAL),
        (6, 0.0, 2.5, OUT_OF_RANGE),
        (5, -1.0, 3.2, OUT_OF_RANGE),
    ],
)
def test_regime_tags(n, alpha, p, expected):
    assert classify_regime(coefficients(ProblemParams(n, alpha, p))).regime == expected


def test_regime_sign_patterns():
    assert classify_regime(coefficients(ProblemParams(6, 0.0, 4.0))).signs == ("+", "+", "-")
    assert classify_regime(coefficients(ProblemParams(6, 0.0, 5.0))).signs == ("+", "0", "0")
    assert classify_regime(coefficients(ProblemParams(6, 0.0, 5.5))).signs == ("+", "-", "+")


def test_regime_is_critical_only_within_tolerance():
    exps = critical_exponents(ProblemParams(6, 0.0, 4.0))
    pc = exps.hardy_sobolev
    assert classify_regime(coefficients(ProblemParams(6, 0.0, pc + 5e-13))).regime == CRITICAL
    assert classify_regime(coefficients(ProblemParams(6, 0.0, pc + 1e-9))).regime == SUPERCRITICAL


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=4, alpha=0.0, p=4.0),          # n must exceed 2m
        dict(n=6.5, alpha=0.0, p=4.0),        # integer dimensions only
        dict(n=6, alpha=-4.0, p=4.0),         # alpha > -2m strictly
        dict(n=6, alpha=0.0, p=1.0),          # p > 1 strictly
        dict(n=6, alpha=0.0, p=math.inf),     # finite p only
        dict(n=6, alpha=math.inf, p=4.0),     # finite alpha only
        dict(n=6, alpha=0.0, p=math.nan),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ProblemParams(**kwargs)


def test_dichotomy_window_accepts_6_0_4():
    ok, reason = in_dichotomy_window(ProblemParams(6, 0.0, 4.0))
    assert ok and reason == ""


def test_dichotomy_window_rejects_with_numeric_reason():
    ok, reason = in_dichotomy_window(ProblemParams(6, 0.0, 9.0))
    assert not ok
    assert "(3, 5)" in reason

    ok, reason = in_dichotomy_window(ProblemParams(6, 1.0, 4.0))
    assert not ok
    assert "alpha" in reason

    # critical p strictly inside the window (needs alpha < 0)
    ok, reason = in_dichotomy_window(ProblemParams(6, -1.0, 4.0))
    assert not ok
    assert "critical" in reason

    # below the lower exponent the window is empty on the left
    ok, reason = in_dichotomy_window(ProblemParams(5, -1.0, 3.2))
    assert not ok
    assert "4" in reason


@pytest.mark.parametrize("n, alpha, p", [(6, 0.0, 4.0), (7, 0.0, 3.0), (6, -1.0, 3.5), (8, -2.0, 3.0)])
def test_kelvin_dual_keeps_a0_a2_and_negates_a1_a3(n, alpha, p):
    # B' = n - 4 - B: the dual flow is the original one run backward.
    coeffs = coefficients(ProblemParams(n, alpha, p))
    dual = kelvin_dual(coeffs)
    assert (dual.n, dual.alpha, dual.p) == (n, (n - 4) * p - (n + 4) - alpha, p)
    assert dual.B == pytest.approx(n - 4 - coeffs.B, rel=1e-15)
    want = (coeffs.a0, -coeffs.a1, coeffs.a2, -coeffs.a3)
    for got, expected in zip((dual.a0, dual.a1, dual.a2, dual.a3), want):
        assert abs(got - expected) <= 5.3e-15 * abs(expected)
    # Twice dual is the problem itself.
    assert kelvin_dual(dual).alpha == alpha


def test_kelvin_dual_of_a_triple_at_or_below_serrin_is_refused():
    # p at the Serrin exponent (n + alpha) / (n - 4) makes alpha' = -4.
    with pytest.raises(ValueError, match="alpha > -4"):
        kelvin_dual(coefficients(ProblemParams(6, 0.0, 3.0)))


def test_dichotomy_window_is_its_kelvin_dual_reading(workloads):
    # serrin < p iff alpha' > -4, and p < (n + 4 + alpha)/(n - 4) iff
    # alpha' < 0: the window is alpha <= 0, -4 < alpha' < 0 and p not
    # critical, on every atlas triple, none of them decided by rounding.
    triples = workloads.atlas_triples(23)
    inside = 0
    for n, alpha, p in triples:
        params = ProblemParams(n, alpha, p)
        dual_alpha = (n - 4) * p - (n + 4) - alpha
        critical = abs(p - critical_exponents(params).hardy_sobolev) < CRITICALITY_TOL
        ok = alpha <= 0.0 and -4.0 < dual_alpha < 0.0 and not critical
        assert in_dichotomy_window(params)[0] == ok, (n, alpha, p)
        inside += ok
    assert len(triples) == 768 and 0 < inside < 768


def test_b_scales_with_alpha_and_p():
    assert ProblemParams(6, 0.0, 4.0).B == pytest.approx(4.0 / 3.0)
    assert ProblemParams(6, -1.0, 4.0).B == pytest.approx(1.0)
    assert ProblemParams(8, 2.0, 3.0).B == pytest.approx(3.0)


def test_a0_positive_iff_b_between_roots():
    # a0 = B(B+2)(n-2-B)(n-4-B) changes sign at B = n-4 and B = n-2
    n = 7
    for p, positive in [(2.0, False), (3.0, True), (9.0, True)]:
        params = ProblemParams(n, 0.0, p)
        c = coefficients(params)
        B = params.B
        expect = 0.0 < B < n - 4
        assert (c.a0 > 0.0) == expect == positive
