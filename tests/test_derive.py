import numpy as np
import pytest
from hypothesis import given, strategies as st

from drivemon.derive import (
    DERIVED_CHANNELS,
    channel_display,
    derive_stream,
    derived_index,
    deviation,
    mean_over_wheels,
    power,
)
from drivemon.errors import DataError
from drivemon.telemetry import SENSOR_CHANNELS

from conftest import make_stream

finite6 = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=6, max_size=6
)


def test_power_examples():
    assert power(0.0, 28.0) == 0.0
    assert power(1.2, 28.0) == 1.2 * 28.0
    assert abs(power(1.2, 28.0) - 33.6) < 1e-12
    assert abs(power(-0.5, 28.0) - (-14.0)) < 1e-12


def test_mean_over_wheels_examples():
    assert mean_over_wheels([2, 2, 2, 2, 2, 2]) == 2.0
    assert mean_over_wheels([1, 2, 3, 4, 5, 6]) == 3.5
    assert mean_over_wheels([6, 0, 0, 0, 0, 0]) == 1.0


def test_deviation_examples():
    assert np.array_equal(deviation([2, 2, 2, 2, 2, 2]), np.zeros(6))
    assert np.array_equal(deviation([1, 2, 3, 4, 5, 6]), [2.5, 1.5, 0.5, 0.5, 1.5, 2.5])
    assert np.array_equal(deviation([6, 0, 0, 0, 0, 0]), [5, 1, 1, 1, 1, 1])


def test_wrong_arity_rejected():
    with pytest.raises(DataError):
        mean_over_wheels([1, 2, 3])
    with pytest.raises(DataError):
        deviation([1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(DataError):
        deviation(np.zeros((4, 7)))


def test_deviation_of_many_frames_is_row_by_row():
    frames = np.random.default_rng(5).uniform(-2.0, 2.0, (50, 6))
    many = deviation(frames)
    assert many.shape == (50, 6)
    for row, dev in zip(frames, many):
        assert np.array_equal(deviation(row), dev)


@given(finite6, st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_deviation_shift_invariant(values, c):
    base = deviation(values)
    shifted = deviation([v + c for v in values])
    assert np.max(np.abs(base - shifted)) <= 1e-12


@given(finite6)
def test_deviation_nonnegative_and_centering(values):
    dev = deviation(values)
    assert np.all(dev >= 0.0)
    residual = np.asarray(values, dtype=float) - mean_over_wheels(values)
    assert abs(residual.sum()) <= 1e-12


def test_channel_inventory_and_order():
    assert len(DERIVED_CHANNELS) == 46
    assert DERIVED_CHANNELS[:6] == (
        "current_LF", "cdev_LF", "rate_LF", "voltage_LF", "power_LF", "pdev_LF",
    )
    assert DERIVED_CHANNELS[36:39] == ("accel_X", "accel_Y", "accel_Z")
    assert DERIVED_CHANNELS[-4:] == ("bogie_L", "bogie_R", "diff_L", "diff_R")
    assert derived_index("accel_Z") == 38
    # every raw sensor channel survives into the derived set
    assert all(c in DERIVED_CHANNELS for c in SENSOR_CHANNELS)


def test_channel_display_names():
    assert channel_display("current_LF") == "C[LF]"
    assert channel_display("cdev_RR") == "CD[RR]"
    assert channel_display("power_LM") == "P[LM]"
    assert channel_display("pdev_RF") == "PD[RF]"
    assert channel_display("rate_LR") == "Rate[LR]"
    assert channel_display("voltage_RM") == "V[RM]"
    assert channel_display("accel_Z") == "accel[Z]"
    assert channel_display("bogie_L") == "bogie[L]"


def test_derive_stream_shape_and_metadata():
    stream = make_stream(32, seed=9)
    derived = derive_stream(stream)
    assert derived.values.shape == (32, 46)
    assert np.array_equal(derived.t, stream.t)
    assert np.array_equal(derived.sol, stream.sol)


def test_equal_currents_zero_deviation():
    from drivemon.telemetry import TelemetryStream, uniform_time_axis
    values = make_stream(8, seed=3).values.copy()
    values[:, 0:6] = 1.3
    stream = TelemetryStream(
        t=uniform_time_axis(8), sol=np.full(8, 1, dtype=np.int64), values=values
    )
    derived = derive_stream(stream)
    for w in ("LF", "LM", "LR", "RF", "RM", "RR"):
        assert np.array_equal(derived.channel(f"cdev_{w}"), np.zeros(8))


def test_power_channel_value():
    stream = make_stream(4, seed=3)
    values = stream.values.copy()
    values[:, 0] = 1.2    # current_LF
    values[:, 12] = 28.0  # voltage_LF
    from drivemon.telemetry import TelemetryStream, uniform_time_axis
    stream = TelemetryStream(
        t=uniform_time_axis(4), sol=np.full(4, 1, dtype=np.int64), values=values
    )
    derived = derive_stream(stream)
    assert np.max(np.abs(derived.channel("power_LF") - 33.6)) < 1e-12


def test_sensor_channels_copied_unchanged():
    stream = make_stream(16, seed=11)
    derived = derive_stream(stream)
    for name in SENSOR_CHANNELS:
        assert np.array_equal(derived.channel(name), stream.channel(name))


def test_mean_centering_identity_per_frame():
    stream = make_stream(64, seed=21)
    currents = stream.values[:, 0:6]
    powers = currents * stream.values[:, 12:18]
    for block in (currents, powers):
        residual = block - block.mean(axis=1, keepdims=True)
        assert np.max(np.abs(residual.sum(axis=1))) <= 1e-12


def test_constant_voltage_links_power_and_current_deviation():
    rng = np.random.default_rng(8)
    stream = make_stream(32, seed=8)
    values = stream.values.copy()
    values[:, 0:6] = rng.uniform(0.2, 1.5, size=(32, 6))
    values[:, 12:18] = 28.0
    from drivemon.telemetry import TelemetryStream, uniform_time_axis
    stream = TelemetryStream(
        t=uniform_time_axis(32), sol=np.full(32, 1, dtype=np.int64), values=values
    )
    derived = derive_stream(stream)
    for w in ("LF", "LM", "LR", "RF", "RM", "RR"):
        pd = derived.channel(f"pdev_{w}")
        cd = derived.channel(f"cdev_{w}")
        assert np.max(np.abs(pd - 28.0 * cd)) < 1e-9
