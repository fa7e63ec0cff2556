import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyhenon4 import _dp5
from hardyhenon4.params import CRITICAL, SUBCRITICAL, SUPERCRITICAL, ProblemParams, coefficients
from hardyhenon4.dynamics import (
    REACHED_END,
    Trajectory,
    equilibrium_trajectory,
    fixed_points,
    integrate,
    vector_field,
)
from hardyhenon4.energy import (
    MonotonicityAudit,
    audit_monotonicity,
    energy,
    energy_rate,
    scaling_check,
    sphere_measure,
)
from hardyhenon4.transform import OdeState, neg_laplacian_radial

PARAMS = ProblemParams(6, 0.0, 4.0)
COEFFS = coefficients(PARAMS)
P = 4.0
WSTAR = fixed_points(COEFFS)[1]


def test_sphere_measures():
    assert sphere_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_measure(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert sphere_measure(6) == pytest.approx(math.pi**3, rel=1e-15)


def test_energy_zero_state():
    assert energy(OdeState(0.0, 0.0, 0.0, 0.0), COEFFS) == 0.0


def test_energy_at_equilibrium_closed_form():
    # w*^{p-1} = a0 collapses e(w*) to a0 w*^2 (p-1) / (2(p+1))
    got = energy(OdeState(WSTAR, 0.0, 0.0, 0.0), COEFFS)
    want = sphere_measure(6) * COEFFS.a0 * WSTAR**2 * (P - 1.0) / (2.0 * (P + 1.0))
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(291.5607987327416, abs=1e-9)


@pytest.mark.parametrize("p, regime", [(4.0, SUBCRITICAL), (5.0, CRITICAL), (5.5, SUPERCRITICAL)])
def test_column_stack_matches_per_state_calls_bit_for_bit(p, regime):
    # An orbit that falls to w = 0, read at its samples and in between.
    coeffs = coefficients(ProblemParams(6, 0.0, p))
    assert coeffs.regime == regime
    traj = integrate(OdeState(fixed_points(coeffs)[1], 0.2, 0.0, 0.0), 0.0, -8.0, 1e-10, coeffs)
    dense = np.linspace(traj.t_end, traj.t_start, 997)
    times = np.concatenate((traj.times, dense))
    states = np.concatenate((traj.states, traj.sample(dense)))
    rows = states.tolist()
    for fn in (energy, energy_rate):
        want = np.array([fn(s, coeffs) for s in rows])
        assert fn(states.T, coeffs).tobytes() == want.tobytes()
    want = np.array([neg_laplacian_radial(t, s, coeffs) for t, s in zip(times.tolist(), rows)])
    assert neg_laplacian_radial(times, states.T, coeffs).tobytes() == want.tobytes()


def test_energy_kernel_matches_its_twin_bit_for_bit():
    # hh_energy against _energy_py at w0 <= 0 (where w0^(p+1) is 0), NaN,
    # infinities, subnormals and large w0, in every regime, on a strided
    # stack and on the transpose of a C-contiguous one; and at an
    # overflowing w0^(p+1), where both raise math.exp's OverflowError.
    kernels = _dp5.load()
    if kernels is None:
        pytest.skip("no compiled kernels")
    w0 = [0.0, -0.0, -1.0, -1e300, -math.inf, math.nan, -math.nan, math.inf, 5e-324, 1e-300,
          1.0, WSTAR, 1e10, 1e40]
    rest = np.random.default_rng(5).uniform(-3.0, 3.0, (len(w0), 3))
    states = np.column_stack([w0, rest])
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and the like
        for p in (4.0, 5.0, 5.5):
            coeffs = coefficients(ProblemParams(6, 0.0, p))
            args = (coeffs.a0, coeffs.a2, coeffs.a3, coeffs.p, sphere_measure(coeffs.n))
            for stack in (states.T, states[::2].T):
                want = _dp5._energy_py(stack, *args)
                assert kernels.energy(stack, *args).tobytes() == want.tobytes(), p
            want = _dp5._energy_py(states.T, *args)
            assert energy(states.T, coeffs).tobytes() == want.tobytes(), p
    states[3, 0] = 1e100
    errors = []
    for fn in (kernels.energy, _dp5._energy_py):
        with pytest.raises(OverflowError) as err:
            fn(states.T, *args)
        errors.append(str(err.value))
    assert errors == ["math range error"] * 2


finite = st.floats(min_value=-20.0, max_value=20.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    w0=st.floats(min_value=0.0, max_value=20.0),
    rest=st.tuples(finite, finite, finite),
    n=st.integers(min_value=5, max_value=10),
    alpha=st.floats(min_value=-1.5, max_value=1.5),
    p=st.floats(min_value=2.0, max_value=7.0),
)
def test_energy_rate_matches_gradient_along_flow(w0, rest, n, alpha, p):
    # independent derivation: grad(e) dotted into the vector field must
    # collapse to the two-term rate law
    coeffs = coefficients(ProblemParams(n, alpha, p))
    state = OdeState(w0, *rest)
    f = vector_field(state, coeffs)
    wp = w0**p if w0 > 0.0 else 0.0
    grad = (
        coeffs.a0 * w0 - wp,
        state.w3 + coeffs.a3 * state.w2 + coeffs.a2 * state.w1,
        -state.w2 + coeffs.a3 * state.w1,
        state.w1,
    )
    terms = [g * fi for g, fi in zip(grad, f)]
    lhs = sphere_measure(n) * sum(terms)
    rhs = energy_rate(state, coeffs)
    scale = sphere_measure(n) * (1.0 + sum(abs(x) for x in terms))
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_rate_sign_fixed_by_regime():
    # below critical a3 < 0 < a1 makes the rate nonpositive for every state
    for w1, w2 in [(0.3, -1.2), (-2.0, 0.7), (0.0, 5.0)]:
        assert energy_rate(OdeState(1.0, w1, w2, 0.0), COEFFS) <= 0.0
    ccrit = coefficients(ProblemParams(6, 0.0, 5.0))
    assert energy_rate(OdeState(1.0, 3.0, -2.0, 0.5), ccrit) == 0.0


def test_audit_trivial_on_equilibrium(kernel_paths):
    for kernels in kernel_paths():
        traj = equilibrium_trajectory(WSTAR)
        audit = audit_monotonicity(traj, COEFFS)
        assert audit.max_violation == 0.0, kernels
        assert audit.rate_mismatch == 0.0, kernels


def test_audit_subcritical_orbit(kernel_paths):
    for kernels in kernel_paths():
        traj = integrate(
            OdeState(WSTAR + 1e-3, 0.0, 0.0, 0.0), 0.0, -6.0, 1e-11, COEFFS,
            blowup_threshold=4.0 * WSTAR,
        )
        audit = audit_monotonicity(traj, COEFFS)
        assert audit.max_violation <= 1e-10, kernels
        assert audit.rate_mismatch <= 2e-4, kernels


def test_audit_supercritical_orbit_flips_direction(kernel_paths):
    params = ProblemParams(6, 0.0, 5.5)
    coeffs = coefficients(params)
    ws = fixed_points(coeffs)[1]
    for kernels in kernel_paths():
        traj = integrate(
            OdeState(ws * 1.001, 0.0, 0.0, 0.0), 0.0, -6.0, 1e-11, coeffs,
            blowup_threshold=4.0 * max(ws, 1.0),
        )
        audit = audit_monotonicity(traj, coeffs)
        assert audit.max_violation <= 1e-10, kernels
        assert audit.rate_mismatch <= 2e-4, kernels


def test_critical_orbit_conserves_energy():
    params = ProblemParams(6, 0.0, 5.0)
    coeffs = coefficients(params)
    ws = fixed_points(coeffs)[1]
    traj = integrate(OdeState(ws + 1e-6, 0.0, 0.0, 0.0), 0.0, -3.0, 1e-13, coeffs)
    assert traj.termination == REACHED_END
    evals = [energy(s, coeffs) for s in traj.states]
    assert max(evals) - min(evals) <= 1e-10


def test_audit_runs_on_an_orbit_to_a_horizon_the_grid_rounds_past(kernel_paths):
    # int(10.7 / 0.01) * 0.01 rounds past 10.7: the grid time 1070 is no
    # sample, and the end point -10.7 follows -10.69.
    for kernels in kernel_paths():
        traj = integrate(OdeState(WSTAR, 1e-16, 0.0, 0.0), 0.0, -10.7, 1e-11, COEFFS)
        assert traj.termination == REACHED_END, kernels
        assert traj.times[-2:].tolist() == [-10.69, -10.7], kernels
        audit = audit_monotonicity(traj, COEFFS)
        assert audit.max_violation <= 1e-10, kernels
        assert audit.rate_mismatch <= 2e-4, kernels


def test_audit_rejects_short_trajectories(kernel_paths):
    one = Trajectory(times=np.array([0.0]), states=np.array([[WSTAR, 0.0, 0.0, 0.0]]),
                     termination=REACHED_END)
    for kernels in kernel_paths():
        traj = equilibrium_trajectory(WSTAR, t0=0.0, t1=-0.5)
        with pytest.raises(ValueError):
            audit_monotonicity(traj, COEFFS)
        with pytest.raises(ValueError) as err:
            audit_monotonicity(one, COEFFS)
        assert str(err.value) == "trajectory too short to audit", kernels


def test_audit_fields_are_nonnegative():
    with pytest.raises(ValueError) as err:
        MonotonicityAudit(-1.0, 0.0)
    assert str(err.value) == "audit fields must be nonnegative"


def _audit_args(monkeypatch, traj, coeffs) -> tuple:
    """The arguments with which audit_monotonicity(traj, coeffs) calls the
    audit kernel, on the path kernels() takes."""
    real, calls = _dp5.kernels(), []

    def audit(*args):
        calls.append(args)
        return real.audit(*args)

    with monkeypatch.context() as patch:
        patch.setattr(_dp5, "kernels", lambda: real._replace(audit=audit))
        audit_monotonicity(traj, coeffs)
    [args] = calls
    return args


def test_audit_reads_the_grid_samples_and_an_end_point_only_on_the_grid(
    monkeypatch, kernel_paths
):
    # The -10.7 orbit's end point lies off the grid, after grid sample 1069
    # at -10.69: the audit reads samples 0..1069 and not the end point.  A
    # forward orbit to 3.005 drops its end point too; an orbit to -6.0 and
    # the closed-form orbit to -15.0 end on grid samples 600 and 1500, and
    # are read whole.
    for kernels in kernel_paths():
        cases = [
            (integrate(OdeState(WSTAR, 1e-16, 0.0, 0.0), 0.0, -10.7, 1e-11, COEFFS), 1070),
            (integrate(OdeState(WSTAR, 1e-16, 0.0, 0.0), 0.0, 3.005, 1e-11, COEFFS), 301),
            (integrate(OdeState(WSTAR, 1e-16, 0.0, 0.0), 0.0, -6.0, 1e-11, COEFFS), 601),
            (equilibrium_trajectory(WSTAR), 1501),
        ]
        for traj, audited in cases:
            assert traj.termination == REACHED_END, kernels
            rows, backward, stencil, first, *_ = _audit_args(monkeypatch, traj, COEFFS)
            assert backward == (traj.t_end < 0.0), (kernels, traj.t_end)
            assert rows.tobytes() == traj.states[:audited].tobytes(), (kernels, traj.t_end)
            # The stencil of every audited sample but those within FD_STEP of
            # the span's ends, in increasing t.
            t_in = np.sort(traj.times[:audited])
            t_in = t_in[(t_in - 1e-3 >= traj.times.min()) & (t_in + 1e-3 <= traj.times.max())]
            assert t_in[0] == np.sort(traj.times[:audited])[first], (kernels, traj.t_end)
            want = traj.sample(np.concatenate((t_in + 1e-3, t_in - 1e-3)))
            assert stencil.tobytes() == want.tobytes(), (kernels, traj.t_end)


def _strided(a: np.ndarray) -> np.ndarray:
    """A view of a's values whose rows are not C-contiguous."""
    wide = np.zeros((len(a), 8))
    wide[:, ::2] = a
    return wide[:, ::2]


def _audit_bits(result) -> bytes:
    return struct.pack("<2d", *result)


def test_audit_kernel_matches_its_twin_bit_for_bit(monkeypatch):
    # hh_audit against _audit_py on the arguments of audit_monotonicity for
    # backward and forward orbits in every regime and for the closed-form
    # equilibrium orbit, each audited in both directions (so that the ulp
    # allowance enters the violation); on strided rows and stencils and on
    # rows stored in the other order; with a NaN energy, which both maxima
    # keep; and at an overflowing w0^(p+1), where both raise math.exp's
    # OverflowError.
    kernels = _dp5.load()
    if kernels is None:
        pytest.skip("no compiled kernels")
    cases = []
    for p in (4.0, 5.0, 5.5):
        coeffs = coefficients(ProblemParams(6, 0.0, p))
        ws = fixed_points(coeffs)[1]
        for t1, start in ((-6.0, ws * 1.001), (3.0, ws + 1e-6)):
            traj = integrate(OdeState(start, 0.0, 0.0, 0.0), 0.0, t1, 1e-11, coeffs,
                             blowup_threshold=4.0 * max(ws, 1.0))
            cases.append(_audit_args(monkeypatch, traj, coeffs))
    cases.append(_audit_args(monkeypatch, equilibrium_trajectory(WSTAR), COEFFS))
    assert sorted(args[1] for args in cases) == [False] * 3 + [True] * 4
    for rows, backward, stencil, first, *prm, supercritical in cases:
        assert len(rows) >= 100 and len(stencil) >= 2 * (len(rows) - 3)
        for sup in (supercritical, not supercritical):
            want = _dp5._audit_py(rows, backward, stencil, first, *prm, sup)
            for args in (
                (rows, backward, stencil, first),
                (_strided(rows), backward, _strided(stencil), first),
                (rows[::-1], not backward, stencil, first),
            ):
                assert _audit_bits(_dp5._audit_py(*args, *prm, sup)) == _audit_bits(want)
                assert _audit_bits(kernels.audit(*args, *prm, sup)) == _audit_bits(want)
    rows, backward, stencil, first, *prm, supercritical = cases[0]
    bad_row, bad_stencil = rows.copy(), stencil.copy()
    bad_row[50, 1] = math.nan
    bad_stencil[10, 2] = math.nan
    for args in ((bad_row, backward, stencil, first), (rows, backward, bad_stencil, first)):
        want = _dp5._audit_py(*args, *prm, supercritical)
        assert _audit_bits(kernels.audit(*args, *prm, supercritical)) == _audit_bits(want)
        assert math.isnan(want[1]) and math.isnan(want[0]) == (args[0] is bad_row)
    bad_row, bad_stencil = rows.copy(), stencil.copy()
    bad_row[3, 0] = 1e100
    bad_stencil[-1, 0] = 1e100
    for args in ((bad_row, backward, stencil, first), (rows, backward, bad_stencil, first)):
        errors = []
        for fn in (kernels.audit, _dp5._audit_py):
            with pytest.raises(OverflowError) as err:
                fn(*args, *prm, supercritical)
            errors.append(str(err.value))
        assert errors == ["math range error"] * 2


def test_scaling_identity_trivial_cases():
    traj = equilibrium_trajectory(WSTAR)
    assert scaling_check(traj, 1.0, COEFFS) == 0.0
    with pytest.raises(ValueError):
        scaling_check(traj, 0.0, COEFFS)
    with pytest.raises(ValueError):
        scaling_check(traj, -2.0, COEFFS)


def test_scaling_identity_on_equilibrium():
    traj = equilibrium_trajectory(WSTAR)
    for lam in (math.exp(-1.0), math.exp(1.0), 2.5):
        assert scaling_check(traj, lam, COEFFS) <= 1e-10


def test_scaling_needs_overlap():
    traj = equilibrium_trajectory(WSTAR, t0=0.0, t1=-2.0)
    with pytest.raises(ValueError):
        scaling_check(traj, math.exp(3.0), COEFFS)
