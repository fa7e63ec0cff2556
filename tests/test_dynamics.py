import math

import pytest

from hardyhenon4.params import ProblemParams, coefficients
from hardyhenon4.dynamics import (
    BLOW_UP,
    CONVERGES_TO_FIXED_POINT,
    CONVERGES_TO_ZERO,
    NON_POSITIVE,
    REACHED_END,
    UNDETERMINED,
    NonPositiveState,
    analytic_trajectory,
    backward_stable_mode,
    classify_limit,
    equilibrium_trajectory,
    fixed_points,
    integrate,
    linearize,
    mode_trajectory,
    vector_field,
)
from hardyhenon4.experiments import _backward_decaying_basis
from hardyhenon4.transform import OdeState

PARAMS = ProblemParams(6, 0.0, 4.0)
COEFFS = coefficients(PARAMS)
P = 4.0
WSTAR = 1.9917354429142955  # snapped machine equilibrium of a0^(1/3), a0 = 640/81


def test_vector_field_vanishes_exactly_at_equilibrium():
    f = vector_field(OdeState(WSTAR, 0.0, 0.0, 0.0), COEFFS, P)
    assert f == OdeState(0.0, 0.0, 0.0, 0.0)


def test_vector_field_rejects_negative_w():
    with pytest.raises(NonPositiveState):
        vector_field(OdeState(-1e-9, 0.0, 0.0, 0.0), COEFFS, P)


def test_fixed_points_values():
    pts = fixed_points(COEFFS, P)
    assert pts[0] == 0.0
    assert pts[1] == WSTAR
    # the snapped root satisfies the equilibrium equation to the last bit
    assert math.exp(P * math.log(pts[1])) == COEFFS.a0 * pts[1]


def test_fixed_points_warns_when_a0_not_positive():
    coeffs = coefficients(ProblemParams(5, -1.0, 3.2))
    assert coeffs.a0 < 0.0
    with pytest.warns(UserWarning):
        pts = fixed_points(coeffs, 3.2)
    assert pts == [0.0]


def test_linearization_at_zero_has_biharmonic_kernel_roots():
    # the linear flow at w=0 is the biharmonic kernel {1, r^2, r^{2-n}, r^{4-n}}
    # read in log variables: mu in {B, B+2, B+2-n, B+4-n}
    rep = linearize(0.0, COEFFS, P)
    B = COEFFS.B
    expected = sorted([B, B + 2.0, B + 2.0 - 6.0, B + 4.0 - 6.0])
    for root, want in zip(rep.roots, expected):
        assert abs(root.imag) < 1e-8
        assert root.real == pytest.approx(want, abs=1e-8)
    assert rep.n_unstable_backward == 2
    assert rep.residual() < 1e-12


def test_linearization_critical_roots_are_integers():
    coeffs = coefficients(ProblemParams(6, 0.0, 5.0))
    rep = linearize(0.0, coeffs, 5.0)
    for root, want in zip(rep.roots, (-3.0, -1.0, 1.0, 3.0)):
        assert abs(root.imag) < 1e-10
        assert root.real == pytest.approx(want, abs=1e-10)
    assert rep.n_unstable_backward == 2


def test_linearization_at_equilibrium():
    rep = linearize(WSTAR, COEFFS, P)
    assert rep.n_unstable_backward == 3
    assert rep.residual() < 1e-12
    reals = [z for z in rep.roots if abs(z.imag) < 1e-9]
    pairs = [z for z in rep.roots if z.imag > 1e-9]
    assert len(reals) == 2 and len(pairs) == 1
    assert min(z.real for z in reals) == pytest.approx(-3.116, abs=2e-3)
    assert max(z.real for z in reals) == pytest.approx(3.783, abs=2e-3)
    z = pairs[0]
    assert z.real == pytest.approx(0.333, abs=2e-3)
    assert abs(z.imag) == pytest.approx(1.378, abs=2e-3)
    # conjugate partner present
    assert any(abs(w - z.conjugate()) < 1e-9 for w in rep.roots)


def test_backward_stable_mode_is_dominant_real_root():
    mu, mode = backward_stable_mode(COEFFS, P)
    assert mu == pytest.approx(3.783, abs=2e-3)
    # mu is a root of the characteristic polynomial at the equilibrium
    cs = linearize(WSTAR, COEFFS, P).char_coeffs
    val = ((((mu + cs[1]) * mu + cs[2]) * mu + cs[3]) * mu) + cs[4]
    assert abs(val) < 1e-9 * max(abs(c) for c in cs)
    assert sum(v * v for v in mode) == pytest.approx(1.0, rel=1e-12)
    assert mode.w1 == pytest.approx(mu * mode.w0, rel=1e-12)


def test_integrate_validates_inputs():
    y = OdeState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(y, 0.0, -1.0, 1e-3, COEFFS, P)  # tol above the cap
    with pytest.raises(ValueError):
        integrate(y, 0.0, -1.0, 1e-14, COEFFS, P)  # tol below the floor
    with pytest.raises(ValueError):
        integrate(y, 0.0, 0.0, 1e-10, COEFFS, P)
    with pytest.raises(ValueError):
        integrate(y, 0.0, -1.0, 1e-10, COEFFS, P, sample_spacing=0.0)
    with pytest.raises(ValueError):
        integrate(OdeState(math.nan, 0.0, 0.0, 0.0), 0.0, -1.0, 1e-10, COEFFS, P)
    with pytest.raises(NonPositiveState):
        integrate(OdeState(-0.5, 0.0, 0.0, 0.0), 0.0, -1.0, 1e-10, COEFFS, P)


def test_integrate_holds_exact_equilibrium():
    traj = integrate(OdeState(WSTAR, 0.0, 0.0, 0.0), 0.0, -40.0, 1e-10, COEFFS, P)
    assert traj.termination == REACHED_END
    assert traj.t_end == -40.0
    drift = max(abs(s.w0 - WSTAR) for s in traj.states)
    assert drift < 1e-12


def test_integrate_truncates_at_blowup_threshold():
    traj = integrate(
        OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS, P,
        blowup_threshold=10.0,
    )
    assert traj.termination == BLOW_UP
    assert traj.t_end > -60.0
    assert traj.states[-1].w0 == pytest.approx(10.0, abs=1e-9)
    # no stored sample overshoots the threshold
    assert max(s.w0 for s in traj.states) <= 10.0 + 1e-9


def test_integrate_clamps_zero_crossing():
    traj = integrate(
        OdeState(WSTAR, 0.2, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS, P,
    )
    assert traj.termination == NON_POSITIVE
    assert traj.states[-1].w0 >= 0.0
    assert traj.states[-1].w0 < 1e-9


def test_trajectory_dense_sampling():
    traj = integrate(OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 0.0, -3.0, 1e-10, COEFFS, P)
    # energy audits read stored samples in place of dense resamples
    for t, s in zip(traj.times[:-1], traj.states[:-1]):
        assert traj.sample(t) == s
    assert traj.sample(traj.t_end).w0 == pytest.approx(traj.states[-1].w0, rel=1e-9, abs=1e-12)
    assert traj.covers(-1.5) and traj.covers(0.0)
    assert not traj.covers(0.5)
    with pytest.raises(ValueError):
        traj.sample(1.0)


def test_times_run_backward_with_uniform_spacing():
    traj = integrate(OdeState(WSTAR, 0.0, 0.0, 0.0), 0.0, -2.0, 1e-10, COEFFS, P)
    diffs = [b - a for a, b in zip(traj.times, traj.times[1:])]
    assert all(d < 0.0 for d in diffs)
    assert diffs[0] == pytest.approx(-0.01, rel=1e-12)


def test_classify_equilibrium_orbit():
    traj = equilibrium_trajectory(COEFFS, P)
    verdict = classify_limit(traj, COEFFS, P)
    assert verdict.tag == CONVERGES_TO_FIXED_POINT
    assert verdict.terminal_value == pytest.approx(WSTAR, abs=1e-12)
    assert verdict.window_variation < 1e-12


def test_classify_kernel_mode_collapses_to_zero():
    # w = e^{Bt} (u identically 1) decays backward to zero
    traj = mode_trajectory([(1.0, COEFFS.B)], 0.0, -20.0)
    verdict = classify_limit(traj, COEFFS, P)
    assert verdict.tag == CONVERGES_TO_ZERO
    assert verdict.terminal_value < 1e-9


def test_classify_blowup_and_zero_crossing_route_immediately():
    up = integrate(
        OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS, P,
        blowup_threshold=10.0,
    )
    assert classify_limit(up, COEFFS, P).tag == BLOW_UP
    down = integrate(OdeState(WSTAR, 0.2, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS, P)
    assert classify_limit(down, COEFFS, P).tag == CONVERGES_TO_ZERO


def test_classify_requires_span_twice_the_window():
    traj = equilibrium_trajectory(COEFFS, P, t0=0.0, t1=-4.0)
    with pytest.raises(ValueError):
        classify_limit(traj, COEFFS, P, window=5.0)


def test_classify_validates_margin_and_window():
    traj = equilibrium_trajectory(COEFFS, P)
    with pytest.raises(ValueError):
        classify_limit(traj, COEFFS, P, margin=0.0)
    with pytest.raises(ValueError):
        classify_limit(traj, COEFFS, P, window=-1.0)


def test_classify_between_tubes_is_undetermined():
    half = 0.5 * WSTAR
    traj = analytic_trajectory(lambda t: OdeState(half, 0.0, 0.0, 0.0), 0.0, -15.0)
    assert classify_limit(traj, COEFFS, P).tag == UNDETERMINED


def test_mode_trajectory_jet_consistency():
    mu = 1.25
    traj = mode_trajectory([(2.0, mu)], 0.0, -5.0)
    s = traj.sample(-1.0)
    e = 2.0 * math.exp(-mu)
    assert s.w0 == pytest.approx(e, rel=1e-13)
    assert s.w1 == pytest.approx(mu * e, rel=1e-13)
    assert s.w3 == pytest.approx(mu**3 * e, rel=1e-13)


def test_analytic_trajectory_shorter_than_spacing():
    traj = equilibrium_trajectory(COEFFS, P, 0.0, -0.005)
    assert traj.times == (0.0, -0.005)


def test_positive_equilibrium_users_reject_a0_not_positive():
    coeffs = coefficients(ProblemParams(5, -1.0, 3.2))
    for build in (equilibrium_trajectory, backward_stable_mode, _backward_decaying_basis):
        with pytest.raises(ValueError, match="a0=.* <= 0"):
            build(coeffs, 3.2)


def test_analytic_trajectory_rejects_empty_span():
    const = lambda t: OdeState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        analytic_trajectory(const, 0.0, 0.0)
    for spacing in (0.0, -0.01):
        with pytest.raises(ValueError, match="spacing"):
            analytic_trajectory(const, 0.0, -1.0, spacing)
