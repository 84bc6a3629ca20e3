import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssiloc.exceptions import EmptySignal, NonPositiveSigma, NumericalError, ZeroWindow
from rssiloc.filters import (KalmanState, gaussian_filter, gaussian_kernel,
                             kalman_filter, kalman_step, median_filter,
                             moving_average)


class TestMovingAverage:
    def test_full_window_mean(self):
        out = moving_average([-60.0, -62.0, -64.0], 3)
        assert out[2] == pytest.approx(-62.0)

    def test_constant_signal(self):
        for n in (1, 2, 5, 9):
            np.testing.assert_allclose(moving_average([-50.0] * 5, n), -50.0)

    def test_shrinking_warmup(self):
        np.testing.assert_allclose(moving_average([-60.0, -70.0], 3),
                                   [-60.0, -65.0])

    def test_zero_window(self):
        with pytest.raises(ZeroWindow):
            moving_average([-60.0], 0)

    def test_empty_signal(self):
        with pytest.raises(EmptySignal):
            moving_average([], 3)

    def test_length_preserved(self):
        rng = np.random.default_rng(0)
        sig = rng.normal(-60, 2, 137)
        assert len(moving_average(sig, 5)) == 137


class TestMedianFilter:
    def test_centre_median(self):
        out = median_filter([-60.0, -90.0, -62.0], 1)
        assert out[1] == -62.0

    def test_constant_signal(self):
        np.testing.assert_array_equal(median_filter([-50.0] * 7, 2),
                                      [-50.0] * 7)

    def test_impulse_rejected(self):
        out = median_filter([-50.0, -50.0, -200.0, -50.0, -50.0], 1)
        np.testing.assert_array_equal(out, [-50.0] * 5)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sig=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([-200.0, -60.0, 0.0, -0.0]),
                        min_size=1, max_size=40),
           t=st.integers(0, 45))
    def test_outputs_are_window_members(self, sig, t):
        out = median_filter(sig, t)
        assert len(out) == len(sig)
        for n, v in enumerate(out):
            lo, hi = max(0, n - t), min(len(sig), n + t + 1)
            assert v in sig[lo:hi]

    def test_negative_half_width(self):
        with pytest.raises(ValueError):
            median_filter([-60.0], -1)


class TestGaussianFilter:
    def test_kernel_weights_radius_one(self):
        kernel = gaussian_kernel(1.0, radius=1)
        np.testing.assert_allclose(kernel, [0.27406, 0.45186, 0.27406],
                                   atol=1e-4)

    def test_kernel_sums_to_one(self):
        for sigma in (0.5, 1.0, 2.3):
            assert gaussian_kernel(sigma).sum() == pytest.approx(1.0)

    def test_constant_signal(self):
        np.testing.assert_allclose(gaussian_filter([-55.0] * 20, 1.5), -55.0)

    def test_interior_impulse_reproduces_kernel(self):
        sig = np.zeros(21)
        sig[10] = 1.0
        out = gaussian_filter(sig, 1.0)
        kernel = gaussian_kernel(1.0)
        radius = len(kernel) // 2
        np.testing.assert_allclose(out[10 - radius:10 + radius + 1], kernel,
                                   atol=1e-12)

    def test_non_positive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            gaussian_filter([-60.0], 0.0)


class TestKalman:
    def test_constant_measurements_hold(self):
        state = KalmanState(x_hat=-50.0, p=1.0, q=0.0, r=1.0)
        for _ in range(20):
            state = kalman_step(state, -50.0)
            assert state.x_hat == -50.0

    def test_gain_sequence_harmonic(self):
        state = KalmanState(x_hat=0.0, p=1.0, q=0.0, r=1.0)
        for t in range(1, 51):
            p_pred = state.p + state.q
            gain = p_pred / (p_pred + state.r)
            assert abs(gain - 1.0 / (t + 1)) < 1e-12
            state = kalman_step(state, 1.0)

    def test_zero_measurement_noise_tracks_input(self):
        state = KalmanState(x_hat=0.0, p=1.0, q=1.0, r=0.0)
        for z in (-61.0, -58.5, -63.2):
            state = kalman_step(state, z)
            assert state.x_hat == z

    def test_gain_in_unit_interval_and_p_monotone(self):
        rng = np.random.default_rng(2)
        state = KalmanState(x_hat=-60.0, p=3.0, q=0.0, r=2.0)
        prev_p = state.p
        for z in rng.normal(-60, 2, 100):
            p_pred = state.p + state.q
            gain = p_pred / (p_pred + state.r)
            assert 0.0 <= gain <= 1.0
            state = kalman_step(state, z)
            assert state.p <= prev_p
            prev_p = state.p

    def test_converges_to_running_mean_with_diffuse_prior(self):
        rng = np.random.default_rng(3)
        zs = rng.normal(-60, 2, 200)
        state = KalmanState(x_hat=0.0, p=1e12, q=0.0, r=1.0)
        for t, z in enumerate(zs, start=1):
            state = kalman_step(state, z)
            assert state.x_hat == pytest.approx(zs[:t].mean(), abs=1e-6)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            KalmanState(x_hat=0.0, p=1.0, q=0.0, r=0.0)
        with pytest.raises(ValueError):
            KalmanState(x_hat=0.0, p=-1.0, q=1.0, r=1.0)

    def test_sequence_filter_defaults(self):
        # constant head has zero variance, so r falls back to 4.0 and the
        # filter still smooths
        sig = np.concatenate([np.full(10, -60.0), [-50.0, -70.0, -60.0]])
        out = kalman_filter(sig)
        assert len(out) == len(sig)
        assert out[0] == -60.0


def iterated_steps(signal, q, r):
    state = KalmanState(signal[0], 1.0, q, r)
    out = []
    for z in signal:
        state = kalman_step(state, z)
        out.append(state.x_hat)
    return np.array(out)


@st.composite
def kalman_signals(draw):
    # raw or rounded (tied) offsets about a level up to +-1e308; a sum that
    # overflows puts inf in the signal
    level = draw(st.floats(-1e308, 1e308) | st.sampled_from([0.0, -60.0]))
    scale = draw(st.sampled_from([1.0, 8.0, 1e6, 1e300, 1e308]))
    offsets = draw(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]),
                            min_size=1, max_size=40))
    if draw(st.booleans()):
        offsets = [round(o * 4) / 4 for o in offsets]
    return [level + scale * o for o in offsets]


VARIANCES = st.floats(1e-6, 1e308) | st.sampled_from([0.0, 1e-4, 4.0, 1e300])


class TestKalmanFilterEqualsSteps:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(signal=kalman_signals(), q=VARIANCES, r=VARIANCES)
    @example(signal=[0.0], q=1e300, r=1e300)  # only the last variance overflows
    @example(signal=[-1e308, 1e308, 0.0], q=1.0, r=1.0)  # the innovation overflows
    @example(signal=[-60.0, -61.0], q=0.0, r=0.0)
    def test_bit_for_bit_and_same_errors(self, signal, q, r):
        # the same error: ValueError for a bad start, NumericalError for an overflow
        try:
            want = iterated_steps(signal, q, r)
        except (ValueError, NumericalError) as exc:
            with pytest.raises(type(exc)) as err:
                kalman_filter(signal, q=q, r=r)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            return
        assert kalman_filter(signal, q=q, r=r).tobytes() == want.tobytes()


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(signal=kalman_signals(), q=VARIANCES, r=VARIANCES)
    def test_step_returns_the_state_the_constructor_builds(self, signal, q, r):
        # kalman_step builds its state unchecked; the checked constructor
        # accepts the same fields and gives an equal state
        try:
            state = KalmanState(signal[0], 1.0, q, r)
            for z in signal:
                state = kalman_step(state, z)
                rebuilt = KalmanState(state.x_hat, state.p, state.q, state.r)
                assert type(state) is KalmanState and vars(state) == vars(rebuilt)
        except (ValueError, NumericalError):
            pass


class TestVarianceReduction:
    def test_all_filters_reduce_noise_variance(self):
        rng = np.random.default_rng(4)
        sig = -60.0 + rng.normal(0, 2.0, 10_000)
        v_in = sig.var()
        assert moving_average(sig, 5).var() < v_in
        assert median_filter(sig, 2).var() < v_in
        assert gaussian_filter(sig, 1.0).var() < v_in
        assert kalman_filter(sig).var() < v_in

    def test_filters_preserve_length_and_constants(self):
        sig = np.full(50, -42.0)
        for out in (moving_average(sig, 7), median_filter(sig, 3),
                    gaussian_filter(sig, 2.0), kalman_filter(sig, q=0.0)):
            assert len(out) == 50
            np.testing.assert_allclose(out, -42.0)


class TestExtremeLevelsAndWidths:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 30), level=st.floats(-1.7e308, 1.7e308),
           width=st.integers(0, 40), sigma=st.floats(0.05, 1e12))
    @example(n=3, level=1e308, width=5, sigma=1.0)
    @example(n=12, level=-1.7e308, width=3, sigma=2.0)
    def test_constants_pass_through_exactly(self, n, level, width, sigma):
        sig = np.full(n, level)
        for out in (moving_average(sig, width + 1), median_filter(sig, width),
                    gaussian_filter(sig, sigma), kalman_filter(sig)):
            assert np.array_equal(out, sig)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sig=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([-200.0, -60.0, 0.0]),
                        min_size=1, max_size=30),
           extra=st.integers(0, 40))
    def test_half_widths_past_the_signal_are_exact(self, sig, extra):
        # the uncut clamped window, built here, against the cut one
        t = len(sig) - 1 + extra
        idx = np.clip(np.arange(len(sig))[:, None] + np.arange(-t, t + 1), 0, len(sig) - 1)
        assert np.array_equal(median_filter(sig, t), np.median(np.array(sig)[idx], axis=1))
        assert np.array_equal(median_filter(sig, 10 ** 12), median_filter(sig, len(sig) - 1))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(sig=st.lists(st.floats(-120.0, 0.0), min_size=1, max_size=30),
           sigma=st.floats(0.05, 60.0))
    def test_gaussian_radius_past_the_signal_barely_moves(self, sig, sigma):
        # the uncut kernel, renormalized over the in-range taps
        kernel = gaussian_kernel(sigma)
        span = slice(len(kernel) // 2, len(kernel) // 2 + len(sig))
        want = (np.convolve(sig, kernel)[span]
                / np.convolve(np.ones(len(sig)), kernel)[span])
        np.testing.assert_allclose(gaussian_filter(sig, sigma), want, rtol=2e-15)
        assert np.isfinite(gaussian_filter(sig, 1e12)).all()
