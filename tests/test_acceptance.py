"""Acceptance battery: one test function per numbered criterion.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion.  Every tolerance sits directly in an assertion, and every
randomized check draws from the same counter-based generator the
experiment runners use, so each figure is reproducible bit for bit.
Criterion 6 has a second, strictly-xfailing twin documenting the grid
point that has no positive equilibrium to seed from.
"""

import math

import numpy as np
import pytest

from hardyhenon4.params import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    ProblemParams,
    a0_factored,
    classify_regime,
    coefficients,
    critical_exponents,
)
from hardyhenon4.transform import OdeState, neg_laplacian_radial
from hardyhenon4.dynamics import (
    BLOW_UP,
    CONVERGES_TO_FIXED_POINT,
    CONVERGES_TO_ZERO,
    UNDETERMINED,
    equilibrium_trajectory,
    fixed_points,
    integrate,
    linearize,
    mode_trajectory,
    vector_field,
)
from hardyhenon4.energy import energy, scaling_check
from hardyhenon4.experiments import (
    ExperimentConfig,
    _backward_decaying_basis,
    _rng,
    _row_key,
    run_classification_sweep,
    run_energy_audit,
)
from hardyhenon4.green import (
    RadialField,
    bilaplacian_solve_radial,
    integrability_report,
    make_grid,
    poisson_solve_radial,
    representation_check,
    singularity_bound_check,
    superharmonic_check,
)

PARAMS = ProblemParams(6, 0.0, 4.0)
COEFFS = coefficients(PARAMS)
P = 4.0
WSTAR = fixed_points(COEFFS)[1]

_THREE_CLASSES = {CONVERGES_TO_ZERO, CONVERGES_TO_FIXED_POINT, BLOW_UP}


def _param_stream(seed: int):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    while True:
        yield int(rng.integers(5, 13)), float(rng.uniform(-3.99, 3.99)), rng


def _perturbed_singular_orbit(seed: int, index: int, horizon: float, box: float = 1e-5):
    """Seeded draw along the backward-decaying eigenmodes at the equilibrium."""
    basis = _backward_decaying_basis(WSTAR, COEFFS)
    draw = _rng(seed, _row_key(0, index)).uniform(-box, box, len(basis))
    comps = [WSTAR, 0.0, 0.0, 0.0]
    for c, vec in zip(draw, basis):
        for k in range(4):
            comps[k] = float(comps[k] + c * vec[k])
    return integrate(OdeState(*comps), 0.0, horizon, 1e-12, COEFFS)


def test_criterion_01_sign_regimes():
    # 2000 in-regime draws with zero sign-pattern exceptions, plus the
    # two middle coefficients vanishing at the critical exponent
    stream = _param_stream(1)
    checked = 0
    for want_regime, want_signs in (
        (SUBCRITICAL, ("+", "+", "-")),
        (SUPERCRITICAL, ("+", "-", "+")),
    ):
        for _ in range(1000):
            n, alpha, rng = next(stream)
            exps = critical_exponents(ProblemParams(n, alpha, 2.0))
            u = float(rng.uniform(0.05, 0.95))
            if want_regime == SUBCRITICAL:
                p = exps.serrin + u * (exps.hardy_sobolev - exps.serrin)
            else:
                p = exps.hardy_sobolev + 0.15 + 3.0 * u
            report = classify_regime(coefficients(ProblemParams(n, alpha, p)))
            assert report.regime == want_regime, (n, alpha, p)
            assert report.signs == want_signs, (n, alpha, p)
            checked += 1
    assert checked == 2000

    for _ in range(200):
        n, alpha, _ = next(stream)
        p = (n + 4.0 + 2.0 * alpha) / (n - 4.0)
        c = coefficients(ProblemParams(n, alpha, p))
        assert c.regime == CRITICAL
        assert abs(c.a1) < 1e-12 * (1.0 + abs(c.a2)), (n, alpha)
        assert abs(c.a3) < 1e-12 * (1.0 + abs(c.a2)), (n, alpha)


def test_criterion_02_quartic_factorization():
    stream = _param_stream(2)
    for _ in range(10_000):
        n, alpha, rng = next(stream)
        p = float(rng.uniform(1.5, 12.0))
        coeffs = coefficients(ProblemParams(n, alpha, p))
        quartic = coeffs.a0
        product = a0_factored(coeffs)
        assert abs(quartic - product) <= 1e-12 * max(1.0, abs(product)), (n, alpha, p)


def test_criterion_03_exact_singular_solution():
    assert vector_field(OdeState(WSTAR, 0.0, 0.0, 0.0), COEFFS) == OdeState(
        0.0, 0.0, 0.0, 0.0
    )
    traj = integrate(OdeState(WSTAR, 0.0, 0.0, 0.0), 0.0, -40.0, 1e-10, COEFFS)
    assert traj.t_end == -40.0
    assert max(abs(traj.states[:, 0] - WSTAR)) < 1e-6


def test_criterion_04_kernel_roots():
    stream = _param_stream(4)
    for _ in range(1000):
        n, alpha, rng = next(stream)
        p = float(rng.uniform(1.5, 12.0))
        c = coefficients(ProblemParams(n, alpha, p))
        B = c.B
        rep = linearize(0.0, c)
        expected = sorted([B, B + 2.0, B - (n - 2.0), B - (n - 4.0)])
        for root, want in zip(rep.roots, expected):
            assert abs(root - want) <= 1e-8, (n, alpha, p)

    crit = linearize(0.0, coefficients(ProblemParams(6, 0.0, 5.0)))
    for root, want in zip(crit.roots, (-3.0, -1.0, 1.0, 3.0)):
        assert abs(root - want) <= 1e-10


def test_criterion_04_closed_form_roots_match_companion_eigenvalues():
    # np.roots, LAPACK's eigenvalues of the companion matrix, is an
    # independent reference for linearize's closed form, at 0 and at w*.
    stream = _param_stream(4)
    for _ in range(1000):
        n, alpha, rng = next(stream)
        p = float(rng.uniform(1.5, 12.0))
        c = coefficients(ProblemParams(n, alpha, p))
        for point in (0.0, fixed_points(c)[1]) if c.a0 > 0.0 else (0.0,):
            rep = linearize(point, c)
            ref = sorted(map(complex, np.roots(rep.char_coeffs)), key=lambda z: (z.real, z.imag))
            size = max(map(abs, ref))
            assert max(abs(z - w) for z, w in zip(rep.roots, ref)) <= 1e-11 * size, (n, alpha, p)
            assert rep.n_unstable_backward == sum(z.real > 0.0 for z in ref), (n, alpha, p)


def test_criterion_05_energy_monotonicity_and_rate():
    cfg = ExperimentConfig(
        kind="energy-audit", param_grid=((6, 0.0, 4.0),), samples=64, seed=3
    )
    table = run_energy_audit(cfg)
    k_viol = table.schema.index("max_violation")
    k_rate = table.schema.index("rate_mismatch")
    k_note = table.schema.index("note")
    assert len(table.rows) == 64
    for row in table.rows:
        assert row[k_note] == ""
        assert row[k_viol] <= 1e-8
        assert row[k_rate] <= 1e-4

    crit_params = ProblemParams(6, 0.0, 5.0)
    crit_coeffs = coefficients(crit_params)
    ws = fixed_points(crit_coeffs)[1]
    for i in range(16):
        draw = _rng(13, _row_key(0, i)).uniform(-1e-6, 1e-6, 4)
        state = OdeState(float(ws + draw[0]), float(draw[1]), float(draw[2]), float(draw[3]))
        traj = integrate(state, 0.0, -3.0, 1e-13, crit_coeffs)
        evals = [energy(s, crit_coeffs) for s in traj.states]
        assert max(evals) - min(evals) <= 1e-8


def _sweep_labels(tol: float):
    cfg = ExperimentConfig(
        kind="classification", param_grid=((6, 0.0, 4.0),),
        samples=64, seed=7, tol=tol,
    )
    table = run_classification_sweep(cfg)
    k_kind = table.schema.index("kind")
    k_class = table.schema.index("limit_class")
    k_term = table.schema.index("terminal_w0")
    k_idx = table.schema.index("index")
    return {
        r[k_idx]: (r[k_class], r[k_term])
        for r in table.rows
        if r[k_kind] == "draw"
    }


def test_criterion_06_dichotomy_classification():
    labels = _sweep_labels(1e-10)
    assert len(labels) == 64
    for cls, terminal in labels.values():
        assert cls in _THREE_CLASSES
        if cls == CONVERGES_TO_FIXED_POINT:
            assert abs(terminal - WSTAR) <= 1e-3

    halved = _sweep_labels(5e-11)
    unchanged = sum(
        1 for i in labels if labels[i][0] == halved[i][0]
    )
    assert unchanged >= 0.95 * len(labels)
    for i in labels:
        if labels[i][0] != halved[i][0]:
            assert UNDETERMINED in (labels[i][0], halved[i][0])


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at (5, -1, 3.2) the zero-order coefficient is negative (p sits at or "
        "below the lower admissible exponent), so there is no positive "
        "equilibrium to seed the three-class experiment from; the sweep "
        "rejects the grid point with a numeric reason instead"
    ),
)
def test_criterion_06_dichotomy_at_low_exponent_grid_point():
    cfg = ExperimentConfig(
        kind="classification", param_grid=((5, -1.0, 3.2),), samples=64, seed=7
    )
    table = run_classification_sweep(cfg)
    k_kind = table.schema.index("kind")
    draws = [r for r in table.rows if r[k_kind] == "draw"]
    assert len(draws) == 64


def test_criterion_07_scaling_identity():
    for i in range(8):
        draw = _rng(3, _row_key(0, i)).uniform(-1e-3, 1e-3, 4)
        state = OdeState(
            float(WSTAR + draw[0]), float(draw[1]), float(draw[2]), float(draw[3])
        )
        traj = integrate(
            state, 0.0, -60.0, 1e-10, COEFFS,
            blowup_threshold=4.0 * max(WSTAR, 1.0),
        )
        for lam in (math.exp(-2.0), math.exp(-1.0), math.exp(1.0)):
            assert scaling_check(traj, lam, COEFFS) <= 1e-8


def test_criterion_08_green_closed_forms():
    grid = make_grid(count=2048)
    ones = RadialField(grid=grid, values=np.ones(grid.count))
    v1 = poisson_solve_radial(ones, 6)
    assert np.max(np.abs(v1.values - (1.0 - grid.nodes**2) / 12.0)) <= 1e-8

    inv2 = RadialField(grid=grid, values=grid.nodes**-2.0)
    v2 = poisson_solve_radial(inv2, 6)
    assert np.max(np.abs(v2.values - (-grid.t / 4.0))) <= 1e-7

    v4 = bilaplacian_solve_radial(ones, 6)
    assert abs(v4.values[0] - 5.0 / 1152.0) <= 1e-7


def test_criterion_09_representation_residual_refinement():
    traj = equilibrium_trajectory(WSTAR)
    res = {
        count: representation_check(traj, COEFFS, count=count).residual
        for count in (2048, 4096, 8192)
    }
    assert res[2048] / res[4096] >= 2.0
    assert res[4096] / res[8192] >= 2.0


def test_criterion_10_superharmonicity():
    singular = [equilibrium_trajectory(WSTAR)]
    singular += [_perturbed_singular_orbit(11, i, horizon=-4.0) for i in range(4)]
    for traj in singular:
        rep = superharmonic_check(traj, COEFFS, WSTAR)
        assert rep.min_value > 0.0
        assert rep.tau == 1.0

    at_r1 = neg_laplacian_radial(0.0, OdeState(WSTAR, 0.0, 0.0, 0.0), COEFFS)
    closed_form = COEFFS.B * (6.0 - 2.0 - COEFFS.B) * WSTAR
    assert abs(at_r1 - closed_form) <= 1e-10
    assert at_r1 == pytest.approx(7.0816, abs=1e-3)


def test_criterion_11_integrability_split():
    singular = equilibrium_trajectory(WSTAR, t1=-16.0)
    rep = integrability_report(singular, COEFFS)
    assert rep.l1_converges
    assert rep.weighted_diverges
    pB = P * COEFFS.B
    assert abs(rep.l1_shell_exponent - (6.0 + 0.0 - pB)) <= 1e-6
    assert abs(rep.weighted_shell_exponent - (2.0 + 0.0 - pB)) <= 1e-6

    removable = mode_trajectory([(1.0, COEFFS.B)], 0.0, -16.0)
    rep_r = integrability_report(removable, COEFFS)
    assert rep_r.l1_converges
    assert not rep_r.weighted_diverges


def test_criterion_12_singularity_bounds():
    everything = [
        equilibrium_trajectory(WSTAR),
        mode_trajectory([(1.0, COEFFS.B)], 0.0, -16.0),
        integrate(
            OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS,
            blowup_threshold=10.0,
        ),
        integrate(OdeState(WSTAR, 0.2, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS),
        _perturbed_singular_orbit(21, 0, horizon=-4.0),
    ]
    for traj in everything:
        sups = singularity_bound_check(traj, COEFFS).sup_values
        assert all(math.isfinite(s) for s in sups)

    for horizon in (-2.0, -3.0, -4.0):
        for i in range(4):
            traj = _perturbed_singular_orbit(21, i, horizon=horizon)
            sups = singularity_bound_check(traj, COEFFS).sup_values
            assert abs(sups[0] - WSTAR) <= 1e-3, (horizon, i)
