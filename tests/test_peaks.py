import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks as scipy_find_peaks

from ringcav import peaks


def gaussian(x, mu, sig, amp):
    return amp * np.exp(-0.5 * ((x - mu) / sig) ** 2)


def test_single_peak_position_refined():
    x = np.linspace(-10, 10, 401)
    # vertex deliberately off-grid
    y = gaussian(x, 1.2345, 2.0, 1.0)
    found = peaks.find_local_maxima(x, y)
    assert len(found) == 1
    assert found[0] == pytest.approx(1.2345, abs=1e-3)


def test_two_peaks_found_in_order():
    x = np.linspace(-20, 20, 801)
    y = gaussian(x, -7.0, 1.5, 1.0) + gaussian(x, 6.5, 1.5, 0.8)
    found = peaks.find_local_maxima(x, y)
    assert len(found) == 2
    assert found[0] < found[1]
    assert found[0] == pytest.approx(-7.0, abs=0.02)
    assert found[1] == pytest.approx(6.5, abs=0.02)


def test_small_ripple_rejected():
    x = np.linspace(0, 10, 1001)
    y = gaussian(x, 5, 1.0, 1.0) + 0.003 * np.sin(40 * x)
    found = peaks.find_local_maxima(x, y)
    assert len(found) == 1


def test_flat_signal_no_peaks():
    x = np.linspace(0, 1, 50)
    assert len(peaks.find_local_maxima(x, np.ones(50))) == 0


def test_endpoint_maxima_not_counted():
    x = np.linspace(0, 1, 100)
    y = x.copy()
    assert len(peaks.find_local_maxima(x, y)) == 0


def test_noise_scale_estimates_sigma():
    rng = np.random.default_rng(0)
    y = 0.5 + rng.normal(0, 0.01, 4000)
    est = peaks.noise_scale(y)
    assert est == pytest.approx(0.01, rel=0.1)


def test_noise_scale_near_zero_for_smooth():
    x = np.linspace(-10, 10, 801)
    assert peaks.noise_scale(gaussian(x, 0, 2, 1)) < 1e-4


def test_noisy_peaks_survive_noise_floor():
    rng = np.random.default_rng(1)
    x = np.linspace(-20, 20, 2001)
    y = gaussian(x, -5, 1.5, 1.0) + gaussian(x, 5, 1.5, 1.0) + rng.normal(0, 0.01, x.size)
    found = peaks.find_local_maxima(x, y)
    assert len(found) == 2


def test_pure_noise_yields_no_peaks():
    rng = np.random.default_rng(2)
    x = np.linspace(0, 1, 3000)
    y = rng.normal(0, 0.01, 3000)
    assert len(peaks.find_local_maxima(x, y)) == 0


def test_dips_are_minima():
    x = np.linspace(-10, 10, 801)
    t = 1.0 - gaussian(x, 2.0, 1.0, 0.5)
    dips = peaks.find_transmission_dips(x, t)
    assert len(dips) == 1
    assert dips[0] == pytest.approx(2.0, abs=0.01)


def test_measure_splitting_two_dips():
    x = np.linspace(-20, 20, 1601)
    t = 1.0 - gaussian(x, -7.2, 1.5, 0.5) - gaussian(x, 7.2, 1.5, 0.5)
    assert peaks.measure_splitting(x, t) == pytest.approx(14.4, abs=0.05)


def test_measure_splitting_raises_on_single_dip():
    x = np.linspace(-20, 20, 1601)
    t = 1.0 - gaussian(x, 0.0, 1.5, 0.5)
    with pytest.raises(ValueError, match="expected 2"):
        peaks.measure_splitting(x, t)


# ------------------------------------------- find_peaks against scipy's

# integer levels give plateaus and ties; tenths give prominences whose
# comparison with the cut depends on rounding
samples = st.one_of(
    st.lists(st.integers(-3, 3).map(float), max_size=60),
    st.lists(st.integers(-30, 30).map(lambda k: k / 10.0), max_size=60),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=60),
)


def _assert_same_peaks(y, prominence):
    np.testing.assert_array_equal(
        peaks.find_peaks(y, prominence), scipy_find_peaks(y, prominence=prominence)[0]
    )


@settings(max_examples=300, deadline=None)
@given(values=samples, data=st.data())
def test_find_peaks_matches_scipy(values, data):
    y = np.array(values, dtype=float)
    exact = scipy_find_peaks(y, prominence=0.0)[1]["prominences"]
    cuts = [0.0, data.draw(st.floats(0.0, 10.0))]
    if exact.size:
        cuts.append(float(data.draw(st.sampled_from(list(exact)))))
    for cut in cuts:
        _assert_same_peaks(y, cut)


@pytest.mark.parametrize("seed", range(3))
def test_find_peaks_matches_scipy_on_long_signals(seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(-20, 20, 4001)
    noisy_dip = 0.5 / (1 + (x / 2) ** 2) + rng.normal(0, 0.01, x.size)
    quantised_walk = np.round(np.cumsum(rng.normal(0, 0.01, x.size)), 2)
    # one peak whose left walk needs all 3000 samples to reach its base
    ramp = np.r_[np.linspace(0.0, 1.0, 3000), 2.0, np.linspace(1.0, -1.0, 1000)]
    for y in (noisy_dip, quantised_walk, ramp):
        exact = scipy_find_peaks(y, prominence=0.0)[1]["prominences"]
        floor = max(0.01 * np.ptp(y), peaks._noise_prominence_floor(y))
        for cut in (0.0, 0.05, floor, np.median(exact), np.max(exact)):
            _assert_same_peaks(y, cut)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.nan])),
                  min_size=1, max_size=40))
@example(x=[3.0, 1.0, 2.0])
@example(x=[4.0, 1.0, 3.0, 2.0])
@example(x=[1.0, np.nan, 2.0])
@example(x=[-0.0])
def test_median_is_numpys_bit_for_bit(x):
    x = np.array(x)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past 1.8e308
        mine, ref = peaks._median(x), np.median(x)
    if np.isnan(ref):
        assert np.isnan(mine)
    else:
        assert np.float64(mine).tobytes() == np.float64(ref).tobytes()
