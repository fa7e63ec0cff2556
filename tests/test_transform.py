import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyhenon4.params import ProblemParams, coefficients
from hardyhenon4.transform import (
    OdeState,
    RadialJet,
    _exp,
    _log,
    from_log,
    neg_laplacian_radial,
    to_log,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    r=st.floats(min_value=1e-4, max_value=1e4),
    u=st.tuples(finite, finite, finite, finite),
    B=st.floats(min_value=0.05, max_value=6.0),
)
def test_round_trip_physical_to_log(r, u, B):
    jet = RadialJet(r, *u)
    t, state = to_log(jet, B)
    assert t == pytest.approx(math.log(r), rel=1e-15)
    back = from_log(t, state, B)
    # rounding is relative to the scale-invariant combinations r^k u_k
    scaled = [jet.u0, jet.u1 * r, jet.u2 * r * r, jet.u3 * r**3]
    scale = 1.0 + max(abs(x) for x in scaled)
    got = [back.u0, back.u1 * r, back.u2 * r * r, back.u3 * r**3]
    for g, want in zip(got, scaled):
        assert g == pytest.approx(want, abs=1e-10 * scale)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    t=st.floats(min_value=-9.0, max_value=9.0),
    w=st.tuples(finite, finite, finite, finite),
    B=st.floats(min_value=0.05, max_value=6.0),
)
def test_round_trip_log_to_physical(t, w, B):
    state = OdeState(*w)
    back_t, back = to_log(from_log(t, state, B), B)
    assert back_t == pytest.approx(t, abs=1e-12)
    scale = 1.0 + max(abs(x) for x in w)
    for got, want in zip(back, state):
        assert got == pytest.approx(want, abs=1e-10 * scale)


def test_pure_power_maps_to_constant_state():
    # u = c r^{-B} is the equilibrium profile; its w-jet is (c, 0, 0, 0)
    params = ProblemParams(6, 0.0, 4.0)
    B = params.B
    c = 1.9917354429142955
    for r in (0.01, 0.37, 1.0, 42.0):
        u0 = c * r**-B
        u1 = -B * c * r ** (-B - 1.0)
        u2 = B * (B + 1.0) * c * r ** (-B - 2.0)
        u3 = -B * (B + 1.0) * (B + 2.0) * c * r ** (-B - 3.0)
        t, state = to_log(RadialJet(r, u0, u1, u2, u3), B)
        assert state.w0 == pytest.approx(c, rel=1e-13)
        assert state.w1 == pytest.approx(0.0, abs=1e-12 * c)
        assert state.w2 == pytest.approx(0.0, abs=1e-11 * c)
        assert state.w3 == pytest.approx(0.0, abs=1e-10 * c)


def test_constant_u_gives_exponential_w():
    # u identically 1 means w(t) = e^{Bt}, so the w-jet is B^k e^{Bt}
    B = 4.0 / 3.0
    for r in (0.5, 1.0, 3.0):
        t, state = to_log(RadialJet(r, 1.0, 0.0, 0.0, 0.0), B)
        rB = r**B
        assert state.w0 == pytest.approx(rB, rel=1e-14)
        assert state.w1 == pytest.approx(B * rB, rel=1e-14)
        assert state.w2 == pytest.approx(B * B * rB, rel=1e-14)
        assert state.w3 == pytest.approx(B**3 * rB, rel=1e-14)


def test_neg_laplacian_at_equilibrium():
    # -Delta(c r^{-B}) = B(n-2-B) c r^{-B-2}; at t=0 the prefactor drops out
    params = ProblemParams(6, 0.0, 4.0)
    c = coefficients(params)
    wstar = 1.9917354429142955
    state = OdeState(wstar, 0.0, 0.0, 0.0)
    got = neg_laplacian_radial(0.0, state, c)
    want = c.B * (params.n - 2.0 - c.B) * wstar  # (4/3)(8/3) w* = 32 w*/9
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(32.0 * wstar / 9.0, rel=1e-14)

    # and the r^{-B-2} scaling at other times
    t = -2.0
    assert neg_laplacian_radial(t, state, c) == pytest.approx(
        want * math.exp(-(c.B + 2.0) * t), rel=1e-13
    )


def test_libm_map_is_math_elementwise(kernel_paths):
    # numpy's own exp may run a SIMD kernel that differs from libm in the
    # last bit; the map must give math's bits at every element.
    x = np.linspace(-30.0, 5.0, 200001)
    want_ex = np.array([math.exp(v) for v in x.tolist()])
    want_log_ex = np.array([math.log(v) for v in want_ex.tolist()])
    for kernels in kernel_paths():
        ex = _exp(x)
        assert ex.tobytes() == want_ex.tobytes(), kernels
        log_ex = _log(ex.reshape(3, -1))
        assert log_ex.shape == (3, 66667), kernels
        assert log_ex.tobytes() == want_log_ex.tobytes(), kernels
        assert type(_exp(0.5)) is float and _exp(0.5) == math.exp(0.5)
        with pytest.raises(OverflowError):
            _exp(np.array([0.0, 710.0]))


def _outcome(call):
    # The shape and bits of call()'s array, or the type and text of what it raised.
    try:
        out = call()
    except (OverflowError, ValueError) as err:
        return type(err), str(err)
    return out.shape, out.tobytes()


def _math_map(fn, x):
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def test_libm_map_matches_math_value_for_value_and_error_for_error(kernel_paths):
    edge = 709.782712893384  # the largest double whose exp is finite
    cases = (
        (math.exp, _exp,
         (edge, math.nextafter(edge, math.inf), math.inf, -math.inf, math.nan, -745.2)),
        (math.log, _log, (0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 5e-324)),
    )
    grid = np.linspace(0.5, 40.0, 24).reshape(4, 6)
    for kernels in kernel_paths():
        for fn, libm_map, values in cases:
            for v in values:
                # The value between two that map cleanly, in 1-D and 2-D.
                for x in (np.array([1.0, v, 2.0]), np.array([[1.0, 2.0], [v, 3.0]])):
                    want = _outcome(lambda: _math_map(fn, x))
                    assert _outcome(lambda: libm_map(x)) == want, (kernels, fn.__name__, v)
            # A transposed and two strided views.
            for view in (grid.T, grid[::2, ::3], grid[:, 1]):
                assert not view.flags.c_contiguous
                want = _outcome(lambda: _math_map(fn, view))
                assert _outcome(lambda: libm_map(view)) == want, (kernels, fn.__name__)


def test_stacked_jets_match_per_column_calls_bit_for_bit():
    rng = np.random.default_rng(7)
    k = 257
    t = rng.uniform(-12.0, 3.0, k)
    w = rng.uniform(-50.0, 50.0, (4, k))
    B = 4.0 / 3.0
    jet = from_log(t, w, B)
    back_t, back = to_log(jet, B)
    for j in range(k):
        one = from_log(float(t[j]), OdeState(*w[:, j].tolist()), B)
        one_t, one_back = to_log(one, B)
        got = [float(jet.r[j]), *(float(u[j]) for u in (jet.u0, jet.u1, jet.u2, jet.u3))]
        assert got == [one.r, one.u0, one.u1, one.u2, one.u3]
        assert [float(back_t[j]), *(float(x[j]) for x in back)] == [one_t, *one_back]


def test_nonpositive_radius_rejected():
    with pytest.raises(ValueError):
        RadialJet(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RadialJet(-1.0, 1.0, 0.0, 0.0, 0.0)
    ones = np.ones(3)
    for r in (np.array([1.0, 0.0, 2.0]), np.array([1.0, math.nan, 2.0])):
        with pytest.raises(ValueError):
            RadialJet(r, ones, ones, ones, ones)


def test_state_finiteness_flag():
    assert OdeState(1.0, 2.0, 3.0, 4.0).finite
    assert not OdeState(1.0, math.inf, 3.0, 4.0).finite
    assert not OdeState(math.nan, 0.0, 0.0, 0.0).finite
