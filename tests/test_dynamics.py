import bisect
import dataclasses
import importlib.util
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hardyhenon4 import _dp5, dynamics, green, transform
from hardyhenon4.energy import audit_monotonicity, energy
from hardyhenon4.params import CRITICAL, SUBCRITICAL, SUPERCRITICAL, ProblemParams, coefficients
from hardyhenon4._dp5 import _A, _B5, _E, _MAX_FACTOR, _MIN_FACTOR, _PI_ALPHA, _PI_BETA, _SAFETY
from hardyhenon4.dynamics import (
    BLOW_UP,
    CONVERGES_TO_FIXED_POINT,
    CONVERGES_TO_ZERO,
    NON_POSITIVE,
    REACHED_END,
    UNDETERMINED,
    NonPositiveState,
    _initial_step,
    _integrate_each,
    _rhs,
    analytic_trajectory,
    classify_limit,
    equilibrium_trajectory,
    fixed_points,
    integrate,
    linearize,
    mode_trajectory,
    vector_field,
)
from hardyhenon4.experiments import (
    CLASSIFICATION,
    ExperimentConfig,
    _backward_decaying_basis,
    _draws,
    run_atlas,
    run_classification_sweep,
)
from hardyhenon4.transform import OdeState

PARAMS = ProblemParams(6, 0.0, 4.0)
COEFFS = coefficients(PARAMS)
P = 4.0
WSTAR = 1.9917354429142955  # snapped machine equilibrium of a0^(1/3), a0 = 640/81


def test_compiled_kernels_run_where_a_compiler_exists(monkeypatch, tmp_path):
    if shutil.which(_dp5._compiler()[0]) is None:
        pytest.skip("no C compiler")
    assert _dp5.load() is not None

    def python_twin(*args):
        raise AssertionError("a Python twin ran")

    for name in ("_steps_py", "_orbits_py", "_scan_py", "_bisect_py", "_dense_py", "_energy_py",
                 "_audit_py", "_wpow_py", "_exp_py", "_log_py", "_rows_py", "_parse_py"):
        monkeypatch.setattr(_dp5, name, python_twin)
    # Steps, the crossing bisection and the sample fill; then dense reads.
    traj = integrate(OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS,
                     blowup_threshold=10.0)
    assert traj.termination == BLOW_UP
    # The same steps in the batch kernel, on two shares.
    [batch, _] = _integrate_each([OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0)] * 2, 0.0, -60.0, 1e-10,
                                 COEFFS, blowup_threshold=10.0)
    assert batch.states.tobytes() == traj.states.tobytes()
    assert traj.sample(traj.times[:-1]).tolist() == traj.states[:-1].tolist()
    assert fixed_points(COEFFS) == [0.0, WSTAR]
    # The energy of a stack, and the w^q map.
    assert np.all(np.isfinite(energy(traj.states.T, COEFFS)))
    assert np.all(np.isfinite(dynamics._wpow(traj.states[:, 0], P + 1.0)))
    # The monotonicity audit, over a dense read of its stencil.
    audited = integrate(OdeState(WSTAR + 1e-3, 0.0, 0.0, 0.0), 0.0, -6.0, 1e-11, COEFFS,
                        blowup_threshold=4.0 * WSTAR)
    assert audit_monotonicity(audited, COEFFS).max_violation <= 1e-10
    # An overflowing w0^(p+1) in an energy stack and in an audit: the
    # wrapper raises math.exp's OverflowError itself, running no twin.
    huge = audited.states.copy()
    huge[5, 0] = 1e100
    prm = (COEFFS.a0, COEFFS.a1, COEFFS.a2, COEFFS.a3, P, 1.0, False)
    for run in (lambda: energy(huge.T, COEFFS),
                lambda: _dp5.kernels().audit(huge, True, huge[:4], 0, *prm)):
        with pytest.raises(OverflowError) as err:
            run()
        assert str(err.value) == "math range error"
    # The field writer and reader, and both libm maps: the grid's exp and
    # the log of the radii read back.
    grid = green.make_grid(256)
    field = green.RadialField(grid, np.sqrt(grid.nodes))
    rows = field.dumps().splitlines()[1:]
    assert rows == [f"{r!r},{math.sqrt(r)!r}" for r in grid.nodes.tolist()]
    field.save(tmp_path / "field.csv")
    assert green.RadialField.load(tmp_path / "field.csv").values.tolist() == field.values.tolist()
    # The same writer prints a table's float columns.
    table = run_atlas(ExperimentConfig(kind="atlas", param_grid=((6, 0.0, 4.0),)))
    assert table.to_csv().splitlines()[-1].endswith(f",Subcritical,true,{WSTAR!r},")


def test_vector_field_vanishes_exactly_at_equilibrium():
    f = vector_field(OdeState(WSTAR, 0.0, 0.0, 0.0), COEFFS)
    assert f == OdeState(0.0, 0.0, 0.0, 0.0)


def test_vector_field_rejects_negative_w():
    with pytest.raises(NonPositiveState):
        vector_field(OdeState(-1e-9, 0.0, 0.0, 0.0), COEFFS)


def test_fixed_points_values():
    pts = fixed_points(COEFFS)
    assert pts[0] == 0.0
    assert pts[1] == WSTAR
    # the snapped root satisfies the equilibrium equation to the last bit
    assert math.exp(P * math.log(pts[1])) == COEFFS.a0 * pts[1]


def test_fixed_points_warns_when_a0_not_positive():
    coeffs = coefficients(ProblemParams(5, -1.0, 3.2))
    assert coeffs.a0 < 0.0
    for _ in range(2):  # every call warns, not only the first
        with pytest.warns(UserWarning):
            pts = fixed_points(coeffs)
        assert pts == [0.0]


def _full_scan(a0, p):
    """The equilibrium snap as a plain walk over every ulp of the window.

    Starts 2048 ulps below the seed (or at 0.0) and keeps the first w of
    least (residual, |w - seed|); an overflowing residual counts as +inf.
    """
    def residual(w):
        try:
            return abs((math.exp(p * math.log(w)) if w > 0.0 else 0.0) - a0 * w)
        except OverflowError:
            return math.inf

    seed = a0 ** (1.0 / (p - 1.0))
    best_w, best_g = seed, residual(seed)
    w = seed
    for _ in range(2048):
        w = math.nextafter(w, 0.0)
    for _ in range(4097):
        g = residual(w)
        if g < best_g or (g == best_g and abs(w - seed) < abs(best_w - seed)):
            best_w, best_g = w, g
        w = math.nextafter(w, math.inf)
    return best_w


def _full_scan_cases(monkeypatch):
    """(a0, p) of the atlas triples at seeds 1 and 2 with a0 > 0, 300
    random pairs and the edge cases of the ulp scan."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while the body runs.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cases = []
    for seed in (1, 2):
        for triple in workloads.atlas_triples(seed):
            try:
                coeffs = coefficients(ProblemParams(*triple))
            except ValueError:
                continue
            if coeffs.a0 > 0.0:
                cases.append((coeffs.a0, coeffs.p))
    rng = random.Random(20)
    cases += [(math.exp(rng.uniform(-30.0, 30.0)), 1.0 + math.exp(rng.uniform(-3.0, 2.0)))
              for _ in range(300)]
    above_two = math.nextafter(math.nextafter(math.nextafter(2.0, 3.0), 3.0), 3.0)
    cases += [
        (4.0, 3.0),                # seed exactly 2.0, a power of two
        (above_two ** 2, 3.0),     # a few ulps above a power of two
        # Seeds 10 and 5 ulps above 2^23 and 2^-19, where the ulps
        # below the power of two are half as wide: the nearest exact zeros
        # lie equally far on both sides, the lower one in a later ring.
        (3.3283782822062693, 1.0754269308824598),
        (0.22992954513821023, 1.111617696614685),
        (2.0 ** -1070, 2.0),       # subnormal seed, window clipped at 0.0
        (1e-300, 1.001),           # seed underflows to 0.0
    ]
    # Seeds w a few ulps below where w^3 overflows: the scan skips the
    # ulps above them whose residual overflows.
    cases += [(w * w, 3.0) for w in _overflow_edge(3.0)[0][-3:]]
    assert len(cases) > 1000
    return cases


def test_fixed_points_matches_full_scan(monkeypatch, kernel_paths):
    cases = _full_scan_cases(monkeypatch)
    wants = [_full_scan(a0, p) for a0, p in cases]
    for kernels in kernel_paths():
        mismatches = []
        for (a0, p), want in zip(cases, wants):
            got = fixed_points(dataclasses.replace(COEFFS, a0=a0, p=p))[1]
            if repr(got) != repr(want):
                mismatches.append((a0, p, got, want))
        assert mismatches == [], kernels


@pytest.mark.parametrize("libm_ulps", [_dp5.SCAN_LIBM_ULPS, 1])
def test_scan_stop_rule_bounds_every_residual_of_the_window(monkeypatch, kernel_paths, libm_ulps):
    # The scan closes a side once k * tau of its next ulp exceeds best_g + c.
    # tau grows away from the seed, so the rule rules out no ulp at or
    # below best_g if no ulp of the window has k * tau > g + c for its own
    # residual g.  Checked at every ulp of the +-2048-ulp window, with
    # residuals through the kernels' log and exp (the bits of math's), and
    # also for an error allowance of 1 ulp, four times tighter.
    monkeypatch.setattr(_dp5, "SCAN_LIBM_ULPS", libm_ulps)
    cases = _full_scan_cases(monkeypatch)
    offsets = np.arange(-_dp5.SCAN_WINDOW, _dp5.SCAN_WINDOW + 1)
    for kernels in kernel_paths():
        ruled = 0
        for a0, p in cases:
            seed = a0 ** (1.0 / (p - 1.0))
            k, c = _dp5._scan_bound(seed, a0, p)
            if k == 0.0:  # outside the rule's range: it closes nothing
                assert (k, c) == (0.0, 0.0), (a0, p)
                continue
            w = (np.float64(seed).view(np.int64) + offsets).view(np.float64)
            assert w[0] > 0.0 and np.all(np.diff(w) > 0.0), (a0, p)
            g = np.abs(_dp5.kernels().exp(p * _dp5.kernels().log(w)) - a0 * w)
            tau = np.where(w < seed, (seed - w) / seed, (w - seed) / w)
            closing = k * tau > g + c
            assert not closing.any(), (kernels, a0, p, w[closing])
            ruled += int(np.count_nonzero(k * tau > c))  # past the bound for best_g = 0
        # The check is not empty: most ulps of the windows are past the bound.
        assert ruled > 0.75 * len(cases) * len(offsets), kernels


def test_scan_kernels_agree_on_the_snapped_root_and_its_count(monkeypatch):
    if _dp5.load() is None:
        pytest.skip("no compiled kernels")
    for a0, p in _full_scan_cases(monkeypatch):
        seed = a0 ** (1.0 / (p - 1.0))
        try:
            best_g = abs(dynamics._wpow(seed, p) - a0 * seed)
        except OverflowError:
            continue
        assert _dp5.load().scan(seed, best_g, a0, p) == _dp5._scan_py(seed, best_g, a0, p)


def test_fixed_points_stops_at_the_first_exact_zero(monkeypatch, kernel_paths):
    calls = []

    def log(x):
        calls.append(x)
        return math.log(x)

    counting = types.SimpleNamespace(exp=math.exp, log=log, nextafter=math.nextafter,
                                     inf=math.inf, frexp=math.frexp)
    # The ring loop calls _dp5's math, the seed's residual dynamics'.
    monkeypatch.setattr(_dp5, "math", counting)
    monkeypatch.setattr(dynamics, "math", counting)
    # (6, 0, 4): the seed itself is an exact zero; (6, 0, 5.25): one lies
    # in the first ring of +-16 ulps; (7, 0, 3): none in the window, and
    # the stop rule closes both sides after the second ring, of +-32 ulps.
    for kernels in kernel_paths():
        for triple, most in (((6, 0.0, 4.0), 33), ((6, 0.0, 5.25), 33), ((7, 0.0, 3.0), 65)):
            calls.clear()
            coeffs = coefficients(ProblemParams(*triple))
            wstar, evaluated = dynamics._snap(coeffs.a0, coeffs.p)
            assert evaluated <= most, (kernels, triple)
            if kernels == "python":  # it counts the residuals the loop evaluates
                assert evaluated == len(calls), triple
            assert repr(wstar) == repr(_full_scan(coeffs.a0, coeffs.p)), (kernels, triple)
            assert fixed_points(coeffs) == [0.0, wstar]
        assert evaluated == 65, kernels
        # Outside the stop rule's range the scan runs as without it: the
        # subnormal seed and the seed 0.0 are exact zeros, and so is an ulp
        # within +-128 of the seeds below where w^3 overflows; with
        # p - 1 = 1e9 - 1, no ulp of the whole window is.
        edges = [(2.0 ** -1070, 2.0, 1), (1e-300, 1.001, 1), (3.0, 1e9, 4097)]
        edges += [(w * w, 3.0, 257) for w in _overflow_edge(3.0)[0][-3:]]
        for a0, p, count in edges:
            seed = a0 ** (1.0 / (p - 1.0))
            assert _dp5._scan_bound(seed, a0, p) == (0.0, 0.0), (a0, p)
            wstar, evaluated = dynamics._snap(a0, p)
            assert evaluated == count, (kernels, a0, p)
            assert repr(wstar) == repr(_full_scan(a0, p)), (kernels, a0, p)


def test_fixed_points_names_an_overflowing_residual():
    # At (12, -3, 1.021525) w* is about 8.6e301, but w*^p overflows.
    with pytest.raises(OverflowError, match=r"residual w\^p at the equilibrium .* overflows"):
        fixed_points(coefficients(ProblemParams(12, -3.0, 1.021525)))


def _char_defect(rep):
    # The characteristic polynomial at each root, relative to the sum of
    # the sizes of its terms there.
    worst = 0.0
    for z in rep.roots:
        terms = [c * z ** (4 - k) for k, c in enumerate(rep.char_coeffs)]
        worst = max(worst, abs(sum(terms)) / sum(map(abs, terms)))
    return worst


def test_linearization_at_zero_has_biharmonic_kernel_roots():
    # the linear flow at w=0 is the biharmonic kernel {1, r^2, r^{2-n}, r^{4-n}}
    # read in log variables: mu in {B, B+2, B+2-n, B+4-n}
    rep = linearize(0.0, COEFFS)
    B = COEFFS.B
    expected = sorted([B, B + 2.0, B + 2.0 - 6.0, B + 4.0 - 6.0])
    for root, want in zip(rep.roots, expected):
        assert abs(root.imag) < 1e-8
        assert root.real == pytest.approx(want, abs=1e-8)
    assert rep.n_unstable_backward == 2
    assert _char_defect(rep) < 1e-12


def test_linearization_critical_roots_are_integers():
    coeffs = coefficients(ProblemParams(6, 0.0, 5.0))
    rep = linearize(0.0, coeffs)
    for root, want in zip(rep.roots, (-3.0, -1.0, 1.0, 3.0)):
        assert abs(root.imag) < 1e-10
        assert root.real == pytest.approx(want, abs=1e-10)
    assert rep.n_unstable_backward == 2


def test_linearization_at_equilibrium():
    rep = linearize(WSTAR, COEFFS)
    assert rep.n_unstable_backward == 3
    assert _char_defect(rep) < 1e-12
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


# The three critical triples whose computed B - (n-4)/2 is 0.0, and one
# from the atlas workload's seeded list where it is 2.2e-16.
ATLAS_CRITICAL = (7, 0.969197, 4.312798)


@pytest.mark.parametrize(
    "triple", [(6, 0.0, 5.0), (7, 0.0, 11.0 / 3.0), (6, -1.0, 4.0), ATLAS_CRITICAL]
)
def test_critical_center_pair_is_neutral(triple):
    # At a critical triple B = (n-4)/2, so the center pair at w* is
    # +-i y exactly: neither unstable nor decaying, whatever B - (n-4)/2
    # rounds to.  Only the outer root counts, and only its mode is drawn.
    coeffs = coefficients(ProblemParams(*triple))
    assert coeffs.regime == CRITICAL
    assert (coeffs.B - 0.5 * (coeffs.n - 4) != 0.0) == (triple == ATLAS_CRITICAL)
    wstar = fixed_points(coeffs)[1]
    rep = linearize(wstar, coeffs)
    low, high = rep.roots[1:3]
    assert (low.real, high.real) == (0.0, 0.0)
    assert low == high.conjugate() and high.imag > 0.0
    assert rep.n_unstable_backward == 1
    assert len(_backward_decaying_basis(wstar, coeffs)) == 1


@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_center_pair_turns_complex_past_the_gazzola_grunau_threshold(n):
    # At w* the constant term is a0 - p a0, and the center pair is real
    # iff p a0 <= n^2 (n-4)^2 / 16.  p a0 rises from 0 at the Serrin
    # exponent past the threshold before the critical one; bisect p to
    # the crossing and step a relative 1e-6 to either side.
    threshold = n * n * (n - 4) ** 2 / 16.0
    lo, hi = n / (n - 4) + 1e-9, (n + 4) / (n - 4)

    def excess(p):
        return p * coefficients(ProblemParams(n, 0.0, p)).a0 - threshold

    assert excess(lo) < 0.0 < excess(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    for p, real in ((lo * (1.0 - 1e-6), True), (hi * (1.0 + 1e-6), False)):
        coeffs = coefficients(ProblemParams(n, 0.0, p))
        rep = linearize(fixed_points(coeffs)[1], coeffs)
        low, high = rep.roots[1:3]
        if real:
            assert all(z.imag == 0.0 for z in rep.roots) and low.real < high.real, p
        else:
            assert low == high.conjugate() and high.imag > 0.0, p
        assert _char_defect(rep) < 1e-12


def test_integrate_validates_inputs():
    y = OdeState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(y, 0.0, -1.0, 1e-3, COEFFS)  # tol above the cap
    with pytest.raises(ValueError):
        integrate(y, 0.0, -1.0, 1e-14, COEFFS)  # tol below the floor
    with pytest.raises(ValueError):
        integrate(y, 0.0, 0.0, 1e-10, COEFFS)
    with pytest.raises(ValueError):
        integrate(OdeState(math.nan, 0.0, 0.0, 0.0), 0.0, -1.0, 1e-10, COEFFS)
    with pytest.raises(NonPositiveState):
        integrate(OdeState(-0.5, 0.0, 0.0, 0.0), 0.0, -1.0, 1e-10, COEFFS)


def test_integrate_rejects_non_finite_span(deadline):
    # From the exact equilibrium an infinite span never terminates on its own.
    y = OdeState(WSTAR, 0.0, 0.0, 0.0)
    with deadline(30):
        for t0, t1 in ((0.0, -math.inf), (0.0, math.inf), (math.nan, -1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="time span must be finite"):
                integrate(y, t0, t1, 1e-10, COEFFS)


# Triples whose snapped equilibrium zeroes the field exactly, one per regime.
@pytest.mark.parametrize(
    "regime, triple",
    [
        (SUBCRITICAL, (6, 0.0, 4.0)),
        (CRITICAL, (6, -1.0, 4.0)),
        (SUPERCRITICAL, (6, 0.0, 5.25)),
    ],
    ids=["subcritical", "critical", "supercritical"],
)
def test_integrate_holds_exact_equilibrium(regime, triple, kernel_paths):
    coeffs = coefficients(ProblemParams(*triple))
    assert coeffs.regime == regime
    wstar = fixed_points(coeffs)[1]
    for kernels in kernel_paths():
        traj = integrate(OdeState(wstar, 0.0, 0.0, 0.0), 0.0, -40.0, 1e-10, coeffs)
        assert traj.termination == REACHED_END, kernels
        assert traj.t_end == -40.0, kernels
        # The stages see the field of fixed_points' own power path, which is
        # exactly zero here, so the whole span is one exact step.
        assert traj.segments.tolist() == [[0.0, -40.0] + [wstar, 0.0, 0.0, 0.0] * 2 + [0.0] * 8]
        # The cubic Hermite samples keep the derivatives at zero; their w0 is
        # h00 w* + h01 w*, whose weights sum to 1 only up to rounding.
        assert traj.states[0].tolist() == [wstar, 0.0, 0.0, 0.0], kernels
        for s in traj.states.tolist():
            assert s[1:] == [0.0, 0.0, 0.0], kernels
            assert abs(s[0] - wstar) <= math.ulp(wstar), kernels


def test_integrate_truncates_at_blowup_threshold():
    traj = integrate(
        OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS,
        blowup_threshold=10.0,
    )
    assert traj.termination == BLOW_UP
    assert traj.t_end > -60.0
    assert traj.states[-1, 0] == pytest.approx(10.0, abs=1e-9)
    # no stored sample overshoots the threshold
    assert max(traj.states[:, 0]) <= 10.0 + 1e-9


def test_integrate_clamps_zero_crossing():
    traj = integrate(
        OdeState(WSTAR, 0.2, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS,
    )
    assert traj.termination == NON_POSITIVE
    assert traj.states[-1, 0] >= 0.0
    assert traj.states[-1, 0] < 1e-9


def test_trajectory_dense_sampling():
    traj = integrate(OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 0.0, -3.0, 1e-10, COEFFS)
    # energy audits read stored samples in place of dense resamples
    assert traj.sample(traj.times[:-1]).tolist() == traj.states[:-1].tolist()
    w_end = traj.sample([traj.t_end])[0, 0]
    assert w_end == pytest.approx(traj.states[-1, 0], rel=1e-9, abs=1e-12)
    assert traj.covers(-1.5) and traj.covers(0.0)
    assert not traj.covers(0.5)
    with pytest.raises(ValueError):
        traj.sample([1.0])


def test_times_run_backward_with_uniform_spacing():
    traj = integrate(OdeState(WSTAR, 0.0, 0.0, 0.0), 0.0, -2.0, 1e-10, COEFFS)
    diffs = [b - a for a, b in zip(traj.times, traj.times[1:])]
    assert all(d < 0.0 for d in diffs)
    assert diffs[0] == pytest.approx(-0.01, rel=1e-12)


def test_classify_equilibrium_orbit():
    traj = equilibrium_trajectory(WSTAR)
    verdict = classify_limit(traj, WSTAR)
    assert verdict.tag == CONVERGES_TO_FIXED_POINT
    assert verdict.terminal_value == pytest.approx(WSTAR, abs=1e-12)
    assert verdict.window_variation < 1e-12


def test_equilibrium_samples_are_exact():
    traj = equilibrium_trajectory(WSTAR)
    ts = np.linspace(traj.t_end, traj.t_start, 1001)
    assert np.array_equal(traj.sample(ts), np.tile((WSTAR, 0.0, 0.0, 0.0), (1001, 1)))


def test_classify_kernel_mode_collapses_to_zero():
    # w = e^{Bt} (u identically 1) decays backward to zero
    traj = mode_trajectory([(1.0, COEFFS.B)], 0.0, -20.0)
    verdict = classify_limit(traj, WSTAR)
    assert verdict.tag == CONVERGES_TO_ZERO
    assert verdict.terminal_value < 1e-9


def test_classify_blowup_and_zero_crossing_route_immediately():
    up = integrate(
        OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS,
        blowup_threshold=10.0,
    )
    assert classify_limit(up, WSTAR).tag == BLOW_UP
    down = integrate(OdeState(WSTAR, 0.2, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS)
    assert classify_limit(down, WSTAR).tag == CONVERGES_TO_ZERO


def test_classify_requires_span_twice_the_window():
    traj = equilibrium_trajectory(WSTAR, t0=0.0, t1=-4.0)
    with pytest.raises(ValueError):
        classify_limit(traj, WSTAR, window=5.0)


def test_classify_validates_margin_and_window():
    traj = equilibrium_trajectory(WSTAR)
    with pytest.raises(ValueError):
        classify_limit(traj, WSTAR, margin=0.0)
    with pytest.raises(ValueError):
        classify_limit(traj, WSTAR, window=-1.0)
    for bad in ({"margin": math.nan}, {"window": math.nan}):
        with pytest.raises(ValueError, match="must be positive"):
            classify_limit(traj, WSTAR, **bad)


def test_classify_rejects_margin_above_half_the_equilibrium():
    traj = equilibrium_trajectory(WSTAR)
    assert classify_limit(traj, WSTAR, margin=0.49 * WSTAR).tag == CONVERGES_TO_FIXED_POINT
    for margin in (0.51 * WSTAR, 10.0):
        with pytest.raises(ValueError, match="swallows the equilibrium"):
            classify_limit(traj, WSTAR, margin=margin)
    # At (12, -3, 1.006) w* overflows a double; without it the orbit
    # still classifies.
    big = coefficients(ProblemParams(12, -3.0, 1.006))
    with pytest.raises(OverflowError):
        fixed_points(big)
    decay = mode_trajectory([(1.0, big.B)], 0.0, -20.0)
    assert classify_limit(decay, None).tag == CONVERGES_TO_ZERO


def test_classify_between_tubes_is_undetermined():
    half = 0.5 * WSTAR
    traj = analytic_trajectory(lambda ts: np.tile((half, 0.0, 0.0, 0.0), (len(ts), 1)), 0.0, -15.0)
    assert classify_limit(traj, WSTAR).tag == UNDETERMINED


def test_mode_trajectory_jet_consistency():
    mu = 1.25
    traj = mode_trajectory([(2.0, mu)], 0.0, -5.0)
    w0, w1, _, w3 = traj.sample([-1.0])[0]
    e = 2.0 * math.exp(-mu)
    assert w0 == pytest.approx(e, rel=1e-13)
    assert w1 == pytest.approx(mu * e, rel=1e-13)
    assert w3 == pytest.approx(mu**3 * e, rel=1e-13)


def test_analytic_trajectory_shorter_than_spacing():
    traj = equilibrium_trajectory(WSTAR, 0.0, -0.005)
    assert traj.times.tolist() == [0.0, -0.005]


def test_analytic_trajectory_rejects_empty_span():
    const = lambda ts: np.tile((1.0, 0.0, 0.0, 0.0), (len(ts), 1))
    with pytest.raises(ValueError):
        analytic_trajectory(const, 0.0, 0.0)


# Reference for integrate's unrolled step: the generic Dormand-Prince
# stepper that sums over the tableau, cubic Hermite segments of OdeState-like
# tuples, and a bisection lookup per stored sample.  It also counts the
# rejected steps.
def _lsum(terms):
    # sum() as CPython evaluates float terms before 3.12: start from int 0
    # and add left to right (3.12 switched to compensated summation).
    acc = 0
    for x in terms:
        acc = acc + x
    return acc



# integrate's unrolled sums reproduce the built-in sum() only where sum() is
# the plain left-to-right loop above; from 3.12 on the tables keep the
# 3.11 bytes rather than those of sum().
@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() is compensated from 3.12")
def test_lsum_is_builtin_sum():
    cases = ([1e16, 1.0, -1e16], [-0.0], [-0.0, -0.0], [0.1] * 10, [1.0, 1e-17, -1.0, 3e-17])
    for terms in cases:
        assert struct.pack("<d", _lsum(terms)) == struct.pack("<d", sum(terms))

def _generic_hermite(t, ta, tb, ya, yb, fa, fb):
    h = tb - ta
    s = (t - ta) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return tuple(h00 * ya[i] + h10 * h * fa[i] + h01 * yb[i] + h11 * h * fb[i] for i in range(4))


def _generic_crossing(seg, level):
    lo, hi = seg[0], seg[1]
    flo = seg[2][0] - level
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = _generic_hermite(mid, *seg)[0] - level
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    tc = 0.5 * (lo + hi)
    return tc, _generic_hermite(tc, *seg)


def _generic_dense(segments, ts):
    # Per time, the first step ending at or past it, found by bisection; a
    # time past the last end falls to the last step.
    sgn = -1.0 if segments[0][1] < segments[0][0] else 1.0
    ends = [sgn * seg[1] for seg in segments]
    return [
        _generic_hermite(t, *segments[min(bisect.bisect_left(ends, sgn * t), len(ends) - 1)])
        for t in ts
    ]


def _generic_integrate(initial, t0, t1, tol, coeffs, blowup_threshold, h0=None):
    # h0, where given, replaces the first step of _initial_step.
    rtol, atol = tol, tol * 1e-2
    sgn = 1.0 if t1 > t0 else -1.0
    y = tuple(initial)
    t = t0
    f = _rhs(y, coeffs)
    h = _initial_step(y, f, abs(t1 - t0), rtol, atol) if h0 is None else h0
    err_prev = 1.0
    segments, rejected, termination = [], 0, REACHED_END
    while sgn * (t1 - t) > 0.0:
        h = min(h, abs(t1 - t))
        assert h >= 1e-13 * max(1.0, abs(t))
        hs = sgn * h
        k = [f]
        for i in range(1, 6):
            yi = tuple(y[j] + hs * _lsum(_A[i][m] * k[m][j] for m in range(i)) for j in range(4))
            k.append(_rhs(yi, coeffs))
        y_new = tuple(y[j] + hs * _lsum(_B5[m] * k[m][j] for m in range(6)) for j in range(4))
        f_new = _rhs(y_new, coeffs)
        k.append(f_new)
        err = tuple(hs * _lsum(_E[m] * k[m][j] for m in range(7)) for j in range(4))
        if not all(map(math.isfinite, y_new)):
            h *= 0.25
            rejected += 1
            continue
        acc = 0.0
        for i in range(4):
            q = err[i] / (atol + rtol * max(abs(y[i]), abs(y_new[i])))
            acc += q * q
        norm = math.sqrt(acc / 4.0)
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm**-0.2)
            rejected += 1
            continue
        seg = (t, t + hs, y, y_new, f, f_new)
        segments.append(seg)
        t, y, f = t + hs, y_new, f_new
        if y[0] > blowup_threshold:
            t, y = _generic_crossing(seg, blowup_threshold)
            termination = BLOW_UP
            break
        if y[0] < 0.0:
            t, yc = _generic_crossing(seg, 0.0)
            y = (max(yc[0], 0.0),) + yc[1:]
            termination = NON_POSITIVE
            break
        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * norm**-_PI_ALPHA * err_prev**_PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = norm
        h *= factor
    h = dynamics.DEFAULT_SAMPLE_SPACING
    times = [t0 + sgn * k * h for k in range(int(abs(t - t0) / h) + 1)]
    states = [tuple(initial)] + _generic_dense(segments, times[1:])
    if times[-1] != t:
        times.append(t)
        states.append(y)
    flat = [(ta, tb, *ya, *yb, *fa, *fb) for ta, tb, ya, yb, fa, fb in segments]
    return times, states, flat, termination, rejected


def _bits(values) -> bytes:
    # Bitwise, so a sign of zero or a NaN payload also counts.
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _singular_orbit_start(amplitude: float) -> OdeState:
    comps = [WSTAR, 0.0, 0.0, 0.0]
    for c, vec in zip((3.0, -2.0, 1.0), _backward_decaying_basis(WSTAR, COEFFS)):
        for k in range(4):
            comps[k] += c * amplitude * vec[k]
    return OdeState(*comps)


@pytest.mark.parametrize(
    "initial, t1, tol, threshold, h0, termination",
    [
        (_singular_orbit_start(1e-6), -4.0, 1e-10, 1e6, None, REACHED_END),
        (_singular_orbit_start(1e-6), -4.0, 1e-12, 1e6, None, REACHED_END),
        (OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), -60.0, 1e-10, 10.0, None, BLOW_UP),
        (OdeState(WSTAR, 0.2, 0.0, 0.0), -60.0, 1e-10, 1e6, None, NON_POSITIVE),
        (OdeState(1.0, 1.0, 0.0, 0.0), -20.0, 1e-6, 1e6, None, NON_POSITIVE),
        (OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 3.0, 1e-10, 1e6, None, BLOW_UP),
        (OdeState(WSTAR, -1e-3, 0.0, 0.0), -20.0, 1e-12, 1e6, None, BLOW_UP),
        # w is so small that _initial_step starts from its floor of 1e-6.
        (OdeState(1e-20, 0.0, 0.0, 0.0), 1.0, 1e-4, 1e6, None, REACHED_END),
        # From a first step of 1, the 5th-order solution overflows though
        # no stage's w^p does: the step is rejected as non-finite and
        # retried at a quarter of its size.
        (OdeState(1.0, 0.0, 0.0, -1e307), 1.0, 1e-4, 1e300, 1.0, NON_POSITIVE),
    ],
    ids=[
        "converging", "converging-tol1e-12", "blowup", "nonpositive", "tol1e-6",
        "forward", "blowup-tol1e-12", "tiny-w", "non-finite-step",
    ],
)
def test_integrate_matches_generic_stepper_bit_for_bit(
    initial, t1, tol, threshold, h0, termination, monkeypatch, kernel_paths
):
    times, states, segments, want_termination, rejected = _generic_integrate(
        initial, 0.0, t1, tol, COEFFS, threshold, h0
    )
    if h0 is not None:
        monkeypatch.setattr(dynamics, "_initial_step", lambda *args: h0)
    for kernels in kernel_paths():
        traj = integrate(initial, 0.0, t1, tol, COEFFS, blowup_threshold=threshold)
        assert traj.termination == want_termination == termination, kernels
        assert _bits(traj.times.tolist()) == _bits(times), kernels
        assert _bits(traj.states.ravel().tolist()) == _bits(v for s in states for v in s), kernels
        assert len(traj.segments) == len(segments), kernels
        assert _bits(traj.segments.ravel().tolist()) == _bits(
            v for seg in segments for v in seg
        ), kernels
        assert traj.rejected == rejected, kernels


@pytest.mark.parametrize(
    "initial, t1",
    [(_singular_orbit_start(1e-6), -4.0), (OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 3.0)],
    ids=["backward", "forward"],
)
def test_sample_matches_generic_hermite_bit_for_bit(initial, t1, kernel_paths):
    _, _, flat, _, _ = _generic_integrate(initial, 0.0, t1, 1e-10, COEFFS, 1e6)
    segments = [(s[0], s[1], s[2:6], s[6:10], s[10:14], s[14:18]) for s in flat]
    for kernels in kernel_paths():
        traj = integrate(initial, 0.0, t1, 1e-10, COEFFS)
        rng = random.Random(5)
        lo, hi = sorted((traj.t_start, traj.t_end))
        sgn = 1.0 if t1 > 0.0 else -1.0
        ts = (
            [rng.uniform(lo, hi) for _ in range(400)]
            + [flat[0][0]]
            + [seg[1] for seg in flat if traj.covers(seg[1])]
            # within covers()'s slack; past the last step end on the backward run
            + [traj.t_start - sgn * 5e-13, traj.t_end + sgn * 5e-13]
        )
        assert (t1 < 0.0) == (traj.t_end == flat[-1][1]), kernels
        assert len(ts) > 420
        assert _bits(traj.sample(ts).ravel().tolist()) == _bits(
            v for s in _generic_dense(segments, ts) for v in s
        ), kernels


def test_dense_kernel_walk_matches_its_twin_bit_for_bit():
    # hh_dense starts each time's segment search from the previous time's
    # segment; for any order of the times it must pick the segment that
    # _dense_py's np.searchsorted picks.  Times in order, reversed,
    # shuffled and repeated, on a backward and a forward orbit, with the
    # step ends and starts and times within covers()'s slack past either
    # end; then on an orbit of one segment; then on random segment rows,
    # where each segment gives its own values, so equal bits mean the same
    # segment, at their ends, past them, and at inf and NaN.
    kernels = _dp5.load()
    if kernels is None:
        pytest.skip("no compiled kernels")
    rng = np.random.default_rng(11)

    def orders(ts):
        ts = np.sort(ts)
        return (ts, ts[::-1], rng.permutation(ts), np.repeat(ts, 3), np.tile(ts, 2),
                ts[rng.integers(0, len(ts), 3 * len(ts))])

    for t1 in (-8.0, 3.0):
        traj = integrate(OdeState(WSTAR + 1e-4, 0.0, 0.0, 0.0), 0.0, t1, 1e-10, COEFFS)
        assert len(traj.segments) > 50, t1
        lo, hi = sorted((traj.t_start, traj.t_end))
        ends = traj.segments[:, :2].ravel()
        ts = np.concatenate((rng.uniform(lo, hi, 400), ends[traj.covers(ends)],
                             [lo - 5e-13, lo, hi, hi + 5e-13]))
        for order in orders(ts):
            want = _dp5._dense_py(traj.segments, order)
            assert kernels.dense(traj.segments, order).tobytes() == want.tobytes(), t1
            assert traj.sample(order).tobytes() == want.tobytes(), t1

    traj = integrate(OdeState(WSTAR, 0.0, 0.0, 0.0), 0.0, -40.0, 1e-10, COEFFS)
    assert len(traj.segments) == 1
    for order in orders(np.concatenate((rng.uniform(-40.0, 0.0, 50), [-40.0, 0.0]))):
        want = _dp5._dense_py(traj.segments, order)
        assert kernels.dense(traj.segments, order).tobytes() == want.tobytes()

    for sgn in (-1.0, 1.0):
        grid = sgn * np.cumsum(rng.uniform(0.01, 1.0, 201))
        segments = np.column_stack((grid[:-1], grid[1:], rng.uniform(-1.0, 1.0, (200, 16))))
        ts = np.concatenate((rng.uniform(grid.min() - 1.0, grid.max() + 1.0, 300), grid,
                             [-math.inf, math.inf, math.nan]))
        for order in orders(ts):
            with np.errstate(invalid="ignore"):
                want = _dp5._dense_py(segments, order)
            assert _bits(kernels.dense(segments, order).ravel()) == _bits(want.ravel()), sgn


def test_sample_reads_strided_times_and_only_1d_times(kernel_paths):
    for kernels in kernel_paths():
        traj = integrate(OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 0.0, -3.0, 1e-10, COEFFS)
        ts = np.linspace(-3.0, 0.0, 301)[::-3]
        assert not ts.flags.c_contiguous
        assert traj.sample(ts).tobytes() == traj.sample(ts.copy()).tobytes(), kernels
        for bad in (-0.5, [[-0.5, -0.6], [-0.7, -0.8]]):
            with pytest.raises(ValueError, match="need a 1-D array of times"):
                traj.sample(bad)


def test_sample_takes_the_span_with_its_slack_and_names_the_first_time_outside(kernel_paths):
    for kernels in kernel_paths():
        for traj in (integrate(OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 0.0, -3.0, 1e-10, COEFFS),
                     equilibrium_trajectory(WSTAR, 0.0, -3.0)):
            assert traj.sample(np.array([])).shape == (0, 4), kernels
            # Times inside the 1e-12 slack past either end are read, not refused.
            inside = traj.sample([-3.0 - 5e-13, -1.5, 5e-13])
            assert inside.shape == (3, 4) and np.all(np.isfinite(inside)), kernels
            for ts, first in (([-1.0, -3.0 - 2e-12, 0.0], -3.0 - 2e-12),
                              ([-1.0, 2e-12, -4.0], 2e-12),
                              ([-1.0, math.nan, 5.0], math.nan),
                              ([math.inf, -1.0], math.inf)):
                message = f"t={first!r} outside the covered span [0.0, -3.0]"
                with pytest.raises(ValueError, match=re.escape(message)):
                    traj.sample(ts)


@pytest.mark.parametrize(
    "initial, t1, threshold",
    [
        (OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), -60.0, 10.0),
        (OdeState(WSTAR, 0.2, 0.0, 0.0), -60.0, 1e6),
        (OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 3.0, 1e6),
    ],
    ids=["blowup", "nonpositive", "forward"],
)
def test_crossing_matches_generic_bisection_bit_for_bit(initial, t1, threshold, kernel_paths):
    *_, flat, termination, _ = _generic_integrate(initial, 0.0, t1, 1e-10, COEFFS, threshold)
    row = flat[-1]
    seg = (row[0], row[1], row[2:6], row[6:10], row[10:14], row[14:18])
    # integrate ends at the crossing in the last step, w clamped at 0.0 on
    # a zero crossing.
    if termination == NON_POSITIVE:
        tc, (w0, *jet) = _generic_crossing(seg, 0.0)
        want = [tc, max(w0, 0.0), *jet]
    else:
        tc, jet = _generic_crossing(seg, threshold)
        want = [tc, *jet]
    # A threshold that the first midpoint of that step hits exactly: the
    # bisection's early exit.
    mid = 0.5 * (row[0] + row[1])
    mid_level = _generic_hermite(mid, *seg)[0]
    mid_t, mid_jet = _generic_crossing(seg, mid_level)
    assert mid_t == mid
    for kernels in kernel_paths():
        traj = integrate(initial, 0.0, t1, 1e-10, COEFFS, blowup_threshold=threshold)
        assert traj.termination == termination, kernels
        assert _bits([traj.t_end, *traj.states[-1]]) == _bits(want), kernels
        if termination == BLOW_UP:
            early = integrate(initial, 0.0, t1, 1e-10, COEFFS, blowup_threshold=mid_level)
            assert _bits(early.segments[-1]) == _bits(row), kernels
            assert _bits([early.t_end, *early.states[-1]]) == _bits([mid, *mid_jet]), kernels


def _dense_fill(traj, initial) -> tuple[np.ndarray, np.ndarray]:
    """The oracle of the step kernel's samples: the dense output of traj's
    segments at uniform_times to traj's last time, after the initial
    state, and the last sample again where the grid misses it."""
    t_end = traj.times[-1]
    times = dynamics.uniform_times(traj.times[0], t_end)
    states = [[initial], _dp5.kernels().dense(traj.segments, times[1:])]
    if times[-1] != t_end:
        times = np.append(times, t_end)
        states.append(traj.states[-1:])
    return times, np.concatenate(states)


def _grid_time_past_last_sample_in_last_step(raw) -> bool:
    # The crossing step holds the grid time after sample K, which is dropped.
    sgn = 1.0 if raw.times[-1] > raw.times[0] else -1.0
    k = len(raw.times) - 1  # sample K + 1 is the terminal point
    tk = raw.times[0] + sgn * k * dynamics.DEFAULT_SAMPLE_SPACING
    return sgn * raw.times[-1] < sgn * tk <= sgn * raw.segments[-1, 1]


@pytest.mark.parametrize(
    "initial, t1, tol, threshold, claim",
    [
        # 35 * 0.01 rounds past 0.35, so grid time 35 lies past the last
        # step's end, t1: it is no sample, and the end point follows -0.34.
        (OdeState(WSTAR + 1e-6, 0.0, 0.0, 0.0), -0.35, 1e-10, 1e6,
         lambda raw: -35 * 0.01 < raw.segments[-1, 1] == -0.35
         and raw.times[-2:].tolist() == [-0.34, -0.35]),
        (OdeState(WSTAR + 1e-6, 0.0, 0.0, 0.0), -4.0, 1e-10, 1e6,
         lambda raw: raw.times[-1] == -4.0 and len(raw.times) == 401),
        (OdeState(WSTAR + 1e-6, 0.0, 0.0, 0.0), -4.005, 1e-10, 1e6,
         lambda raw: raw.times[-2:].tolist() == [-4.0, -4.005]),
        (OdeState(WSTAR, 0.2, 0.0, 0.0), -60.0, 1e-10, 1e6,
         _grid_time_past_last_sample_in_last_step),
        (OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), -60.0, 1e-10, 10.0,
         lambda raw: raw.times[-1] > raw.segments[-1, 1]),
        (OdeState(1e-20, 0.0, 0.0, 0.0), 1.0, 1e-4, 1e6,
         lambda raw: raw.times[-1] == 1.0 and raw.segments[-1, 1] - raw.segments[-1, 0] > 0.3),
        (OdeState(WSTAR + 0.01, 0.0, 0.0, 0.0), 3.0, 1e-10, 1e6,
         lambda raw: raw.times[-1] < raw.segments[-1, 1]),
    ],
    ids=["reached-end-past-last-step", "terminal-on-grid", "terminal-off-grid",
         "crossing-step-past-tc", "blowup", "forward", "forward-blowup"],
)
def test_step_kernel_samples_match_the_dense_fill_bit_for_bit(
    initial, t1, tol, threshold, claim, monkeypatch, kernel_paths
):
    # integrate's fields as the step kernel returns them, unchecked.
    monkeypatch.setattr(dynamics, "Trajectory", lambda **fields: types.SimpleNamespace(**fields))
    for kernels in kernel_paths():
        raw = integrate(initial, 0.0, t1, tol, COEFFS, blowup_threshold=threshold)
        assert claim(raw), kernels
        times, states = _dense_fill(raw, initial)
        assert raw.times.tobytes() == times.tobytes(), kernels
        assert raw.states.tobytes() == states.tobytes(), kernels


def test_orbits_to_a_horizon_the_grid_rounds_past_end_there(kernel_paths):
    # The two-decimal horizons t1 in [-30, -10] whose grid time
    # int(|t1| / 0.01) lies past t1, and -0.35: no sample lies past t1,
    # and the end point follows the last grid time before it.
    h = dynamics.DEFAULT_SAMPLE_SPACING
    horizons = [t1 for t1 in (-c / 100 for c in range(1000, 3001))
                if int(abs(t1) / h) * h > abs(t1)]
    assert len(horizons) == 206
    for kernels in kernel_paths():
        for t1 in (-0.35, *horizons):
            grid = dynamics.uniform_times(0.0, t1)
            assert grid[-1] > t1 and int(abs(t1) / h) == len(grid), (kernels, t1)
            for traj in (integrate(OdeState(WSTAR, 0.0, 0.0, 0.0), 0.0, t1, 1e-10, COEFFS),
                         equilibrium_trajectory(WSTAR, 0.0, t1)):
                assert traj.termination == REACHED_END, (kernels, t1)
                assert (np.diff(traj.times) < 0.0).all() and traj.times.min() == t1, (kernels, t1)
                assert traj.times.tobytes() == np.append(grid, t1).tobytes(), (kernels, t1)


def test_integrate_makes_one_step_kernel_call_and_no_dense_call(monkeypatch, kernel_paths):
    for kernels in kernel_paths():
        real, calls = _dp5.kernels(), []

        def counted(name):
            def call(*args):
                calls.append(name)
                return getattr(real, name)(*args)

            return call

        with monkeypatch.context() as patch:
            patch.setattr(_dp5, "kernels",
                          lambda: real._replace(steps=counted("steps"), dense=counted("dense")))
            traj = integrate(OdeState(WSTAR, 0.2, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS)
        assert calls == ["steps"], kernels
        assert len(traj.times) > 100, kernels


@pytest.mark.parametrize(
    "initial, t1, threshold, termination",
    [
        (OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), -60.0, 10.0, BLOW_UP),
        (_singular_orbit_start(1e-6), -4.0, 1e6, REACHED_END),
    ],
    ids=["blowup", "reached-end"],
)
def test_integrator_statistics_count_what_integrate_did(
    initial, t1, threshold, termination, monkeypatch, kernel_paths
):
    # Every stage state of these runs has w > 0, so each right-hand side
    # evaluation of the Python loop calls exp once.
    calls = []

    def exp(x):
        calls.append(x)
        return math.exp(x)

    counting = types.SimpleNamespace(**{**vars(math), "exp": exp})
    # The step loop calls _dp5's math, the first field's w^p dynamics'.
    monkeypatch.setattr(_dp5, "math", counting)
    monkeypatch.setattr(dynamics, "math", counting)
    for kernels in kernel_paths():
        calls.clear()
        traj = integrate(initial, 0.0, t1, 1e-10, COEFFS, blowup_threshold=threshold)
        assert traj.termination == termination
        steps = np.abs(traj.segments[:, 1] - traj.segments[:, 0])
        assert traj.rhs_evals == 1 + 6 * (len(traj.segments) + traj.rejected)
        assert (traj.h_min, traj.h_max) == (steps.min(), steps.max())
        assert 0.0 < traj.h_min < traj.h_max <= abs(t1)
        if kernels == "python":
            assert len(calls) == traj.rhs_evals
    assert traj.rejected > 0 or termination == BLOW_UP


def test_closed_form_orbits_carry_no_integrator_statistics():
    traj = equilibrium_trajectory(WSTAR)
    assert traj.rhs_evals == 0
    assert math.isnan(traj.h_min) and math.isnan(traj.h_max)


def test_generic_stepper_cases_include_rejected_steps(kernel_paths):
    # The "converging" bit-for-bit case above also takes the rejection
    # branch, and integrate counts those steps as the generic stepper does.
    initial = _singular_orbit_start(1e-6)
    *_, rejected = _generic_integrate(initial, 0.0, -4.0, 1e-10, COEFFS, 1e6)
    assert rejected > 0
    for kernels in kernel_paths():
        assert integrate(initial, 0.0, -4.0, 1e-10, COEFFS).rejected == rejected, kernels


def _in_new_thread(fn):
    """fn() run in a thread of its own, which starts without a segment buffer."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=120)


def _trajectory_bytes(traj) -> tuple:
    return (traj.times.tobytes(), traj.states.tobytes(), traj.segments.tobytes(),
            traj.termination, traj.rejected)


def test_integrate_resumes_when_the_segment_buffer_fills(monkeypatch, kernel_paths):
    # SEGMENT_ROWS sizes only the first buffer of a thread, so each run goes
    # in a new thread.  With one row to start from, the buffer the thread
    # keeps can only have grown, by doubling, on a FULL at each power of two
    # below the row count: the kernel returned FULL and resumed each time,
    # and each resume went on with the sample it had stopped at.
    initial = OdeState(WSTAR, -1e-3, 0.0, 0.0)
    keep_rows = _dp5.KEEP_ROWS

    def run():
        return integrate(initial, 0.0, -20.0, 1e-12, COEFFS), getattr(_dp5._buffers, "seg", None)

    for kernels in kernel_paths():
        monkeypatch.setattr(_dp5, "KEEP_ROWS", keep_rows)
        monkeypatch.setattr(_dp5, "SEGMENT_ROWS", 1024)
        whole, _ = _in_new_thread(run)
        rows = len(whole.segments)
        assert 1024 < rows <= _dp5.KEEP_ROWS
        times, states = _dense_fill(whole, initial)
        assert whole.times.tobytes() == times.tobytes(), kernels
        assert whole.states.tobytes() == states.tobytes(), kernels
        monkeypatch.setattr(_dp5, "SEGMENT_ROWS", 1)
        pieces, buffer = _in_new_thread(run)
        assert _trajectory_bytes(pieces) == _trajectory_bytes(whole), kernels
        if kernels == "compiled":
            assert len(buffer) == 2 ** (rows - 1).bit_length()
        else:
            assert buffer is None
        # A sample buffer sized at KEEP_ROWS = 16 rows has room for the
        # samples of a few steps only: the kernel returns FULL before a
        # step that could end past its room, and the wrapper doubles it up
        # to 512 rows, for the 428 samples to the blow-up at t = -4.26.
        monkeypatch.setattr(_dp5, "SEGMENT_ROWS", 1024)
        monkeypatch.setattr(_dp5, "KEEP_ROWS", 16)
        sizes = []
        keep_samples = _dp5._Buffers.keep_samples

        def spy(self, smp):
            sizes.append(None if smp is None else len(smp))
            keep_samples(self, smp)

        with monkeypatch.context() as patch:
            patch.setattr(_dp5._Buffers, "keep_samples", spy)
            small, _ = _in_new_thread(run)
        assert _trajectory_bytes(small) == _trajectory_bytes(whole), kernels
        if kernels == "compiled":
            assert len(small.times) == 428 and sizes == [None, 16, 32, 64, 128, 256, 512, None]
        else:
            assert sizes == [None]


def test_each_integrate_call_owns_its_segments(kernel_paths):
    long_run = (OdeState(WSTAR, -1e-3, 0.0, 0.0), 0.0, -20.0, 1e-10, COEFFS)
    short_run = (OdeState(WSTAR + 0.1, 0.0, 0.0, 0.0), 0.0, -60.0, 1e-10, COEFFS, 10.0)
    for kernels in kernel_paths():
        first = integrate(*long_run)
        kept = _trajectory_bytes(first)
        second = integrate(*short_run)
        # The later call did not write over the earlier trajectory's rows.
        assert _trajectory_bytes(first) == kept, kernels
        assert not np.shares_memory(first.segments, second.segments), kernels
        if kernels == "compiled":
            for traj in (first, second):
                assert not np.shares_memory(traj.segments, _dp5._buffers.seg)
        # Nor does writing into a trajectory reach the next call.
        first.segments[:] = np.nan
        second.segments[:] = np.nan
        assert _trajectory_bytes(integrate(*long_run)) == kept, kernels


def _classify_draws() -> list[tuple]:
    """(coeffs, the 64 seed-23 draws) at each triple of the classify benchmark."""
    out = []
    for triple in ((6, 0.0, 4.0), (7, 0.0, 3.0), (6, -1.0, 3.5)):
        coeffs = coefficients(ProblemParams(*triple))
        config = ExperimentConfig(CLASSIFICATION, (triple,), seed=23)
        out.append((coeffs, [state for _, state in _draws(config, 0, fixed_points(coeffs)[1])]))
    return out


def test_threads_step_the_classify_draws_as_one_thread_does():
    # The step kernel runs without the GIL, and each thread steps in its
    # own buffer: threads at once, more of them than cores (up to 8) and
    # switching often, give the bytes of one.
    if _dp5.load() is None:
        pytest.skip("the compiled kernels do not build here")
    draws = [(state, coeffs) for coeffs, states in _classify_draws() for state in states]
    assert len(draws) == 192

    def run():
        return [_trajectory_bytes(integrate(state, 0.0, -60.0, 1e-10, coeffs))
                for state, coeffs in draws]

    want = run()
    threads = min(os.cpu_count() or 1, 8) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            runs = [pool.submit(run) for _ in range(threads)]
            assert [r.result(timeout=120) for r in runs] == [want] * threads
    finally:
        sys.setswitchinterval(interval)


def _integrate_outcome(*args):
    """integrate's Trajectory, or the exception it raised."""
    try:
        return integrate(*args)
    except Exception as err:
        return err


def _outcome_bytes(outcome) -> tuple:
    """A trajectory's bytes without its segments, or an exception's type and text."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return _trajectory_bytes(dataclasses.replace(outcome, segments=np.empty((0, 18))))


def test_the_batch_steps_each_draw_as_integrate_does(kernel_paths):
    # The BlowUp draws take more steps than the segment ring has rows, so
    # their crossings are bisected in a ring that wrapped.
    draws = _classify_draws()
    for kernels in kernel_paths():
        longest = 0
        for coeffs, states in draws:
            want = [integrate(state, 0.0, -60.0, 1e-10, coeffs) for state in states]
            got = _integrate_each(states, 0.0, -60.0, 1e-10, coeffs)
            assert list(map(_outcome_bytes, got)) == list(map(_outcome_bytes, want)), kernels
            for traj in got:
                assert len(traj.segments) == traj.rhs_evals == 0, kernels
                assert math.isnan(traj.h_min) and math.isnan(traj.h_max), kernels
            longest = max(longest, *(len(traj.segments) for traj in want))
        assert longest > _dp5.SEGMENT_ROWS, kernels


def test_the_batch_grows_its_sample_buffer_as_integrate_does(monkeypatch, kernel_paths):
    # At a -400 horizon the first sample buffer of a share has KEEP_ROWS
    # rows; the exact equilibrium is one step of 400 with 40001 samples, so
    # each share's buffer doubles twice, and the draws after it are packed
    # into the grown buffer.
    coeffs, states = _classify_draws()[0]
    still = OdeState(WSTAR, 0.0, 0.0, 0.0)
    starts = [still, *states[:32], still, *states[32:]]
    monkeypatch.setattr(_dp5, "_cpus", lambda: 2)

    def run():
        return (_integrate_each(starts, 0.0, -400.0, 1e-10, coeffs),
                [None if smp is None else len(smp) for _, smp in _dp5._buffers.shares])

    for kernels in kernel_paths():
        got, sizes = _in_new_thread(run)
        want = [integrate(state, 0.0, -400.0, 1e-10, coeffs) for state in starts]
        assert list(map(_outcome_bytes, got)) == list(map(_outcome_bytes, want)), kernels
        assert len(got[0].times) == len(got[33].times) == 40001, kernels
        assert sizes == ([_dp5.KEEP_SHARE_ROWS] * 2 if kernels == "compiled" else []), kernels


def test_each_start_of_a_batch_gets_its_own_outcome(monkeypatch, kernel_paths):
    # At (5, 2, 100) most draws underflow; a first step of 1 from w = 1000
    # with w' = -1e5 takes the second stage to w = 21000, where w^100
    # overflows in the step kernel, while w0 = 1e80 overflows at the first
    # field.  At (6, 0, 4) the equilibrium is exact: one step to the end.
    real = dynamics._initial_step
    monkeypatch.setattr(dynamics, "_initial_step",
                        lambda y, f, *args: 1.0 if y[0] == 1000.0 else real(y, f, *args))
    triple = (5, 2.0, 100.0)
    steep = coefficients(ProblemParams(*triple))
    config = ExperimentConfig(CLASSIFICATION, (triple,), seed=23, samples=8)
    draws = [state for _, state in _draws(config, 0, fixed_points(steep)[1])]
    batches = [
        (steep, [draws[0], draws[1], OdeState(1000.0, -1e5, 0.0, 0.0), draws[2],
                 OdeState(1e80, 0.0, 0.0, 0.0), OdeState(-0.5, 0.0, 0.0, 0.0), draws[3],
                 OdeState(math.nan, 0.0, 0.0, 0.0), *draws[4:]]),
        (COEFFS, [*_classify_draws()[0][1][:5], OdeState(WSTAR, 0.0, 0.0, 0.0),
                  OdeState(1e80, 0.0, 0.0, 0.0), OdeState(WSTAR, 0.1, 0.0, 0.0)]),
    ]
    kinds = [
        ["IntegrationUnderflow", NON_POSITIVE, "OverflowError", NON_POSITIVE, "OverflowError",
         "NonPositiveState", NON_POSITIVE, "ValueError", "IntegrationUnderflow",
         "IntegrationUnderflow", NON_POSITIVE, "IntegrationUnderflow"],
        [BLOW_UP, NON_POSITIVE, NON_POSITIVE, NON_POSITIVE, NON_POSITIVE, REACHED_END,
         "OverflowError", NON_POSITIVE],
    ]
    for kernels in kernel_paths():
        for (coeffs, starts), kind in zip(batches, kinds):
            want = [_integrate_outcome(state, 0.0, -60.0, 1e-10, coeffs) for state in starts]
            for cpus in (1, 3):
                monkeypatch.setattr(_dp5, "_cpus", lambda: cpus)
                got = _integrate_each(starts, 0.0, -60.0, 1e-10, coeffs)
                assert list(map(_outcome_bytes, got)) == list(map(_outcome_bytes, want)), kernels
            assert [getattr(o, "termination", type(o).__name__) for o in got] == kind, kernels
        assert _integrate_each([], 0.0, -60.0, 1e-10, COEFFS) == [], kernels
    with pytest.raises(ValueError, match="need t0 != t1"):
        _integrate_each([OdeState(WSTAR, 0.0, 0.0, 0.0)], 0.0, 0.0, 1e-10, COEFFS)


def test_the_batch_kernel_returns_its_twins_bits(monkeypatch):
    # The raw per-start outcomes and the st rows left behind.  From a
    # sample buffer of KEEP_ROWS = 16 rows (a new thread keeps none yet)
    # every orbit returns FULL and resumes; the start at w = 1000 takes a
    # first step of 1 only once its buffer has room for it, and overflows
    # there, after its first sample: both paths drop that sample and its
    # rejected steps.
    if _dp5.load() is None:
        pytest.skip("the compiled kernels do not build here")
    real = dynamics._initial_step
    monkeypatch.setattr(dynamics, "_initial_step",
                        lambda y, f, *args: 1.0 if y[0] == 1000.0 else real(y, f, *args))
    monkeypatch.setattr(_dp5, "KEEP_ROWS", 16)
    coeffs = coefficients(ProblemParams(5, 2.0, 100.0))
    config = ExperimentConfig(CLASSIFICATION, ((5, 2.0, 100.0),), seed=23, samples=3)
    starts = [state for _, state in _draws(config, 0, fixed_points(coeffs)[1])]
    starts.insert(1, OdeState(1000.0, -1e5, 0.0, 0.0))
    prm = dynamics._step_params(0.0, -60.0, 1e-10, coeffs, dynamics.DEFAULT_BLOWUP_THRESHOLD)
    st = np.array([dynamics._start(state, 0.0, -60.0, 1e-10, coeffs) for state in starts])
    for cpus in (1, 2):
        monkeypatch.setattr(_dp5, "_cpus", lambda: cpus)
        outs = []
        for orbits in (_dp5.load().orbits, _dp5._orbits_py):
            left = st.copy()
            outs.append(([(status, rejected, times.tobytes(), states.tobytes())
                          for status, rejected, times, states
                          in _in_new_thread(lambda: orbits(left, prm))], left.tobytes()))
        assert outs[0] == outs[1], cpus
    assert [status for status, *_ in outs[0][0]] == [
        _dp5.UNDERFLOW, _dp5.OVERFLOW, _dp5.NON_POSITIVE, _dp5.NON_POSITIVE]


def test_the_batch_bytes_do_not_depend_on_the_workers(monkeypatch):
    # One share per CPU, never more shares than starts; callers at once,
    # each with share buffers of its own, switching often, give the bytes
    # of one worker.
    if _dp5.load() is None:
        pytest.skip("the compiled kernels do not build here")
    draws = _classify_draws()
    threads_started = []
    start = _dp5.threading.Thread.start

    def counted_start(thread):
        threads_started.append(thread)
        start(thread)

    def run():
        return [list(map(_outcome_bytes, _integrate_each(states, 0.0, -60.0, 1e-10, coeffs)))
                for coeffs, states in draws]

    monkeypatch.setattr(_dp5, "_cpus", lambda: 1)
    want = run()
    monkeypatch.setattr(_dp5.threading.Thread, "start", counted_start)
    for cpus in (2, 3, 200):
        monkeypatch.setattr(_dp5, "_cpus", lambda: cpus)
        threads_started.clear()
        assert _in_new_thread(run) == want, cpus
        # The thread run() went in, then a thread per share but the first.
        assert len(threads_started) == 1 + 3 * (min(cpus, 64) - 1), cpus
    monkeypatch.undo()
    monkeypatch.setattr(_dp5, "_cpus", lambda: 3)
    callers = min(os.cpu_count() or 1, 8) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(callers) as pool:
            runs = [pool.submit(run) for _ in range(callers)]
            assert [r.result(timeout=120) for r in runs] == [want] * callers
    finally:
        sys.setswitchinterval(interval)


def test_classify_steps_each_grid_points_draws_in_one_batch_call(monkeypatch, kernel_paths):
    # One batch call per grid point, and no integrate call; a draw whose
    # orbit fails gets integrate's error as its note: at (5, 2, 100) most
    # draws underflow.
    grid = ((6, 0.0, 4.0), (5, 2.0, 100.0))
    config = ExperimentConfig(CLASSIFICATION, grid, seed=23, samples=5, horizon=-20.0)
    steep = coefficients(ProblemParams(*grid[1]))
    outcomes = [_integrate_outcome(state, 0.0, -20.0, 1e-10, steep)
                for _, state in _draws(config, 1, fixed_points(steep)[1])]
    errors = {i: str(o) for i, o in enumerate(outcomes) if isinstance(o, Exception)}
    assert 0 < len(errors) < 5
    for kernels in kernel_paths():
        real, calls = _dp5.kernels(), []

        def counted(name):
            def call(st, prm):
                calls.append((name, len(st) if st.ndim == 2 else None))
                return getattr(real, name)(st, prm)

            return call

        with monkeypatch.context() as patch:
            patch.setattr(_dp5, "kernels",
                          lambda: real._replace(steps=counted("steps"), orbits=counted("orbits")))
            table = run_classification_sweep(config)
        assert calls == [("orbits", 5), ("orbits", 5)], kernels
        notes = {row[5]: row[-1] for row in table.rows if row[4] == "draw" and row[0] == 5}
        assert len(notes) == 5 and {i: notes[i] for i in errors} == errors, kernels


def test_integrate_maps_no_fresh_pages_per_call():
    # The step kernel's buffer is kept between calls, so after a warm-up a
    # 1400-row orbit writes only into pages already mapped.  A new
    # interpreter counts the faults: how the allocator maps a buffer
    # depends on what the process freed before.
    if not sys.platform.startswith("linux"):
        pytest.skip("minor page faults are counted as on Linux only there")
    pytest.importorskip("resource")
    if _dp5.load() is None:
        pytest.skip("the compiled kernels do not build here")
    script = """
import resource
from hardyhenon4.dynamics import integrate
from hardyhenon4.params import ProblemParams, coefficients
from hardyhenon4.transform import OdeState

def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

coeffs = coefficients(ProblemParams(6, 0.0, 4.0))
initial = OdeState(%r + 1e-6, 0.0, 0.0, 0.0)
for _ in range(5):
    traj = integrate(initial, 0.0, -60.0, 1e-10, coeffs)
before = minor_faults()
for _ in range(50):
    integrate(initial, 0.0, -60.0, 1e-10, coeffs)
print(before, minor_faults() - before, len(traj.segments))
""" % WSTAR
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    counted, faults, rows = map(int, run.stdout.split())
    if counted == 0:
        pytest.skip("ru_minflt is not counted here")
    assert rows >= 1400
    assert faults < 10 * 50


def test_trajectory_requires_segments_of_18_columns(kernel_paths):
    for kernels in kernel_paths():
        for bad in (np.zeros((1, 17)), np.zeros(18), np.zeros((1, 18, 1))):
            with pytest.raises(ValueError, match=r"segments must have shape \(m, 18\), got"):
                dynamics.Trajectory(
                    times=[0.0, -1.0], states=np.zeros((2, 4)), termination=REACHED_END,
                    segments=bad,
                ).sample([-0.5])


def test_trajectory_rejects_malformed_samples():
    good = np.zeros((3, 4))
    nan_state = good.copy()
    nan_state[1, 2] = math.nan
    for times, states, message in (
        ([0.0, -1.0], good, "times and states must have equal length"),
        ([0.0, -1.0, -0.5], good, "trajectory times must be strictly monotone"),
        ([0.0, -1.0, -2.0], nan_state, "trajectory contains a non-finite state"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dynamics.Trajectory(times=times, states=states, termination=REACHED_END)


def test_integrate_reports_step_underflow(kernel_paths):
    for kernels in kernel_paths():
        with pytest.raises(dynamics.IntegrationUnderflow) as err:
            integrate(OdeState(1e30, 1e70, 1e70, 0.0), 0.0, 1.0, 1e-4, COEFFS,
                      blowup_threshold=1e300)
        assert str(err.value) == "step size underflow at t=0; outcome undetermined", kernels


def test_integrate_reports_an_overflowing_stage(monkeypatch, kernel_paths):
    # w^4 is finite at the start, but with a first step of 1 the second
    # stage reaches w = 1.1e77 + 0.2e77 > 1.158e77, where w^4 overflows.
    monkeypatch.setattr(dynamics, "_initial_step", lambda *args: 1.0)
    for kernels in kernel_paths():
        with pytest.raises(OverflowError) as err:
            integrate(OdeState(1.1e77, 1e77, 0.0, 0.0), 0.0, 1.0, 1e-4, COEFFS,
                      blowup_threshold=1e300)
        assert str(err.value) == "math range error", kernels


def test_integrate_names_an_overflowing_start_as_a_stage_does(kernel_paths):
    # From 1e40 to 1e70 the square of the initial step's norm overflows
    # first, from 1e80 on the first w^4: one cause, one text.
    for kernels in kernel_paths():
        for w0 in (1e40, 1e50, 1e60, 1e70, 1e80, 1e120):
            with pytest.raises(OverflowError) as err:
                integrate(OdeState(w0, 0.0, 0.0, 0.0), 0.0, -1.0, 1e-10, COEFFS)
            assert str(err.value) == "math range error", (kernels, w0)


# Exponents of the w^q oracle: the flow's w^p, the energy's w^(p+1), the
# linearization's w^(p-1), and two that take the other branches of exp.
WPOW_EXPONENTS = (P, P + 1.0, P - 1.0, 0.0, -0.5)
WPOW_EDGES = (0.0, -0.0, -1.0, -1e300, -math.inf, math.nan, -math.nan, math.inf, 5e-324,
              1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 2.0, WSTAR, 1e10, 1e50)


def _overflow_edge(q: float) -> tuple[list[float], list[float]]:
    """The 8 doubles below and the 8 above where w^q, q > 0, starts to
    overflow: (finite, overflowing)."""

    def overflows(bits: int) -> bool:
        try:
            math.exp(q * math.log(struct.unpack("<d", struct.pack("<q", bits))[0]))
        except OverflowError:
            return True
        return False

    # Positive doubles order as their bit patterns; bisect on those.
    lo, hi = struct.unpack("<q", struct.pack("<d", 1.0))[0], 0x7FEFFFFFFFFFFFFF
    assert not overflows(lo) and overflows(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if overflows(mid) else (mid, hi)
    doubles = [struct.unpack("<d", struct.pack("<q", b))[0] for b in range(lo - 7, hi + 8)]
    return doubles[:8], doubles[8:]


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # 0 log(inf)
def test_wpow_matches_its_python_twin_bit_for_bit(kernel_paths):
    rng = np.random.default_rng(11)
    cases = [
        np.array(WPOW_EDGES),
        rng.lognormal(0.0, 3.0, 500),
        rng.normal(0.0, 2.0, (20, 25)),  # half of them w <= 0, in two dimensions
        rng.lognormal(0.0, 3.0, 1000)[::3],  # strided
        np.empty(0),
    ]
    for kernels in kernel_paths():
        for q in WPOW_EXPONENTS:
            finite, overflowing = _overflow_edge(q) if q > 0.0 else ([], [])
            for w in (*cases, np.array(finite)):
                got = dynamics._wpow(w, q)
                assert got.shape == w.shape, (kernels, q)
                assert got.tobytes() == _dp5._wpow_py(w, q).tobytes(), (kernels, q)


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # 0 log(inf)
def test_wpow_of_a_scalar_is_that_of_a_one_element_array(kernel_paths):
    for kernels in kernel_paths():
        for q in WPOW_EXPONENTS:
            finite, overflowing = _overflow_edge(q) if q > 0.0 else ([], [])
            for v in (*WPOW_EDGES, *finite):
                want = _bits(dynamics._wpow(np.array([v]), q).tolist())
                for w in (v, np.float64(v), np.array(v)):
                    got = dynamics._wpow(w, q)
                    assert _bits([got]) == want, (kernels, q, v, type(w))
            for v in overflowing:
                for w in (v, np.float64(v), np.array(v), np.array([v])):
                    with pytest.raises(OverflowError, match="^math range error$"):
                        dynamics._wpow(w, q)


def test_wpow_overflow_raises_at_the_first_overflowing_element(monkeypatch, kernel_paths):
    # Both paths raise through math.exp, the compiled one only at the
    # element the kernel stopped at: the argument of the last exp call
    # names that element.
    args = []

    def exp(x):
        args.append(x)
        return math.exp(x)

    recording = types.SimpleNamespace(**{**vars(math), "exp": exp})
    for module in (_dp5, dynamics, transform):
        monkeypatch.setattr(module, "math", recording)
    for kernels in kernel_paths():
        for q in (P, P + 1.0, P - 1.0):
            finite, overflowing = _overflow_edge(q)
            for first in (0, 3, 9):
                w = np.array([2.0, -1.0, math.nan, *finite, 0.5, math.inf])
                w = np.insert(w, first, overflowing[0])
                w = np.insert(w, first + 2, sys.float_info.max)
                args.clear()
                with pytest.raises(OverflowError, match="^math range error$"):
                    dynamics._wpow(w, q)
                assert args[-1] == q * math.log(overflowing[0]), (kernels, q, first)


def test_sample_refuses_an_orbit_without_segments_or_a_closed_form(kernel_paths):
    traj = dynamics.Trajectory(times=np.array([0.0, -0.01]), states=np.ones((2, 4)),
                               termination=REACHED_END)
    for kernels in kernel_paths():
        with pytest.raises(ValueError) as err:
            traj.sample(np.array([-0.005]))
        assert str(err.value) == "trajectory carries no dense segments", kernels
