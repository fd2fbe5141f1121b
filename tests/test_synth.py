import json

import numpy as np
import pytest

import drivemon as dm
from drivemon.errors import DataError
from drivemon.synth import (
    DEFAULT_DURATION_S,
    EVENT_KINDS,
    AnomalyEvent,
    LabeledStream,
    NominalProfile,
    generate_nominal,
    inject,
    make_dataset,
    plan_events,
    read_labels,
    write_labels,
)
from drivemon.telemetry import channel_index


def test_generation_is_deterministic():
    profile = NominalProfile(duration_s=30.0)
    a = generate_nominal(profile, 42)
    b = generate_nominal(profile, 42)
    assert np.array_equal(a.values, b.values)
    c = generate_nominal(profile, 43)
    assert not np.array_equal(a.values, c.values)


def test_frame_count():
    stream = generate_nominal(NominalProfile(duration_s=60.0), 1)
    assert len(stream) == 480


def test_currents_within_six_sigma_over_1000s():
    profile = NominalProfile(duration_s=1000.0)
    stream = generate_nominal(profile, 7)
    for w, off in zip(dm.WHEELS, profile.wheel_current_offsets_a):
        cur = stream.channel(f"current_{w}")
        base = profile.base_current_a + off
        assert np.max(np.abs(cur - base)) < 6.0 * profile.current_noise_a


def test_suspension_within_clamp():
    profile = NominalProfile(duration_s=500.0)
    stream = generate_nominal(profile, 3)
    for name in ("bogie_L", "bogie_R", "diff_L", "diff_R"):
        assert np.max(np.abs(stream.channel(name))) <= profile.suspension_clamp_rad


def test_all_values_finite():
    stream = generate_nominal(NominalProfile(duration_s=100.0), 11)
    assert np.isfinite(stream.values).all()


def nominal_60s(seed=5):
    return generate_nominal(NominalProfile(duration_s=60.0), seed)


def in_event(stream, event):
    return (stream.t >= event.t0) & (stream.t < event.end_t)


@pytest.mark.parametrize("event", [
    AnomalyEvent(kind="RockDrop", t0=20.0),
    AnomalyEvent(kind="MTSC", t0=20.0, wheel="LR"),
    AnomalyEvent(kind="Wheelie", t0=20.0, wheel="RM"),
    AnomalyEvent(kind="HighSlip", t0=20.0),
    AnomalyEvent(kind="IntenseTerrain", t0=20.0, wheel="LM"),
])
def test_injection_outside_interval_bit_identical(event):
    base = nominal_60s()
    injected = inject(base, event, 99)
    mask = ~in_event(base, event)
    assert np.array_equal(injected.values[mask], base.values[mask])
    assert np.array_equal(injected.t, base.t)
    assert np.array_equal(injected.sol, base.sol)
    assert np.isfinite(injected.values).all()


def test_rockdrop_peak_clears_nominal_band():
    profile = NominalProfile(duration_s=60.0)
    base = generate_nominal(profile, 5)
    event = AnomalyEvent(kind="RockDrop", t0=20.0)
    injected = inject(base, event, 1)
    z = injected.channel("accel_Z")[in_event(base, event)]
    assert np.max(np.abs(z)) >= 5.0 * 6.0 * profile.accel_z_noise_ms2
    # 30% of the ring couples into accel_X
    x = injected.channel("accel_X")[in_event(base, event)]
    x0 = base.channel("accel_X")[in_event(base, event)]
    assert np.max(np.abs(x - x0)) >= 0.8 * 0.3 * 3.0


def test_mtsc_targets_one_wheel_only():
    profile = NominalProfile(duration_s=60.0)
    base = generate_nominal(profile, 5)
    event = AnomalyEvent(kind="MTSC", t0=20.0, wheel="LR")
    injected = inject(base, event, 1)
    mask = in_event(base, event)
    assert np.max(injected.channel("current_LR")[mask]) >= 3.0 * profile.base_current_a
    for name in dm.SENSOR_CHANNELS:
        if name == "current_LR":
            continue
        assert np.array_equal(injected.channel(name), base.channel(name))


def test_wheelie_unloads_and_ramps_bogie():
    base = nominal_60s()
    event = AnomalyEvent(kind="Wheelie", t0=20.0, wheel="RM")
    injected = inject(base, event, 1)
    mask = in_event(base, event)
    dip = injected.channel("current_RM")[mask] / base.channel("current_RM")[mask]
    assert dip.min() < 0.25  # decays toward 20% of base at the midpoint
    lift = injected.channel("bogie_R")[mask] - base.channel("bogie_R")[mask]
    assert lift.max() >= 0.07  # ramps by ~0.08 rad
    assert np.array_equal(injected.channel("bogie_L"), base.channel("bogie_L"))


def test_highslip_raises_kurtosis_and_ripples_rates():
    base = generate_nominal(NominalProfile(duration_s=120.0), 5)
    event = AnomalyEvent(kind="HighSlip", t0=30.0, duration_s=60.0)
    injected = inject(base, event, 17)
    mask = in_event(base, event)
    for w in dm.WHEELS:
        cur_in = injected.channel(f"current_{w}")[mask]
        cur_out = base.channel(f"current_{w}")[mask]
        assert np.std(cur_in) > 2.0 * np.std(cur_out)
        assert not np.array_equal(injected.channel(f"rate_{w}")[mask],
                                  base.channel(f"rate_{w}")[mask])
    kurt_in = dm.stats7(injected.channel("current_LF")[mask])[2]
    kurt_out = dm.stats7(base.channel("current_LF")[mask])[2]
    assert kurt_in > kurt_out + 1.0


def test_intense_terrain_surge_and_rate_drop():
    profile = NominalProfile(duration_s=60.0)
    base = generate_nominal(profile, 5)
    event = AnomalyEvent(kind="IntenseTerrain", t0=20.0, wheel="LM")
    injected = inject(base, event, 1)
    mask = in_event(base, event)
    assert np.max(injected.channel("current_LM")[mask]) >= 3.0 * profile.base_current_a
    assert np.min(injected.channel("rate_LM")[mask]) <= 0.2 * profile.wheel_rate_rad_s
    assert not np.array_equal(injected.channel("bogie_L")[mask],
                              base.channel("bogie_L")[mask])


def test_severity_monotone_for_rockdrop_and_mtsc():
    base = nominal_60s()
    for kind, channel, wheel in (("RockDrop", "accel_Z", None), ("MTSC", "current_LF", "LF")):
        peaks = []
        for sev in (0.5, 1.0, 2.0):
            ev = AnomalyEvent(kind=kind, t0=20.0, wheel=wheel, severity=sev)
            injected = inject(base, ev, 1)
            mask = in_event(base, ev)
            dev = np.abs(injected.channel(channel)[mask] - base.channel(channel)[mask])
            peaks.append(dev.max())
        assert peaks[0] <= peaks[1] <= peaks[2]


def test_rockdrop_elevates_window_std_accel_z():
    base = generate_nominal(NominalProfile(duration_s=120.0), 9)
    event = AnomalyEvent(kind="RockDrop", t0=60.0)
    injected = inject(base, event, 2)
    derived = dm.derive_stream(injected)
    mask = dm.feature_mask("prime")
    X, start_t, _ = dm.feature_matrix(derived, dm.WindowSpec(), mask)
    std_z = X[:, [str(f) for f in mask.kept].index("std(accel[Z])")]
    overlapping = (start_t < event.end_t) & (event.t0 < start_t + 4.0)
    assert overlapping.any()
    assert std_z[overlapping].max() > 5.0 * np.median(std_z[~overlapping])


def test_event_validation():
    base = nominal_60s()
    with pytest.raises(DataError):
        inject(base, AnomalyEvent(kind="RockDrop", t0=58.0), 1)  # runs past the end
    with pytest.raises(DataError):
        AnomalyEvent(kind="MTSC", t0=10.0)  # missing wheel
    with pytest.raises(DataError):
        AnomalyEvent(kind="RockDrop", t0=10.0, wheel="LF")  # wheel not applicable
    with pytest.raises(DataError):
        AnomalyEvent(kind="Meteor", t0=10.0)
    with pytest.raises(DataError):
        AnomalyEvent(kind="RockDrop", t0=10.0, severity=0.0)


@pytest.mark.parametrize("field,value", [
    ("t0", float("nan")), ("t0", float("inf")), ("duration", float("nan")),
    ("duration", float("inf")), ("duration", 0.0), ("severity", float("nan")),
    ("severity", float("inf")), ("severity", -1.0),
])
def test_labels_refuse_non_finite_or_non_positive(tmp_path, field, value):
    """NaN passes a `<= 0` check; each bad event is refused, naming the event and the field."""
    good = {"kind": "RockDrop", "t0": 10.0, "duration": 3.0, "wheel": None, "severity": 1.0}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps([good, {**good, "t0": 20.0, field: value}]))
    with pytest.raises(DataError, match=f"labels.json: event 1: field '{field}' is"):
        read_labels(path)


def test_make_dataset_no_events_is_nominal():
    train, labeled = make_dataset(40.0, 40.0, [], seed=21)
    assert labeled.events == ()
    assert len(train) == 320 and len(labeled.stream) == 320
    assert not np.array_equal(train.values, labeled.stream.values)
    # train and test sols differ so reports can tell the drives apart
    assert int(labeled.stream.sol[0]) == int(train.sol[0]) + 1


def test_make_dataset_determinism_and_labels():
    events = plan_events("mixed20", 2000.0, seed=4)
    assert len(events) == 20
    a_train, a_test = make_dataset(40.0, 2000.0, events, seed=4)
    b_train, b_test = make_dataset(40.0, 2000.0, events, seed=4)
    assert np.array_equal(a_train.values, b_train.values)
    assert np.array_equal(a_test.stream.values, b_test.stream.values)
    assert a_test.events == tuple(sorted(events, key=lambda e: e.t0))


def test_make_dataset_rejects_overlap():
    events = [AnomalyEvent(kind="RockDrop", t0=10.0),
              AnomalyEvent(kind="RockDrop", t0=12.0)]
    with pytest.raises(DataError, match="overlap"):
        make_dataset(40.0, 60.0, events, seed=1)


def test_labeled_stream_rejects_out_of_bounds():
    stream = nominal_60s()
    with pytest.raises(DataError):
        LabeledStream(stream=stream, events=(AnomalyEvent(kind="RockDrop", t0=59.0),))


def test_plan_events_mix_and_fit():
    events = plan_events("rockdrop10,mtsc10,wheelie10,highslip5,intenseterrain5",
                         2000.0, seed=7)
    counts = {k: sum(1 for e in events if e.kind == k) for k in EVENT_KINDS}
    assert counts == {"RockDrop": 10, "MTSC": 10, "Wheelie": 10,
                      "HighSlip": 5, "IntenseTerrain": 5}
    ordered = sorted(events, key=lambda e: e.t0)
    for prev, nxt in zip(ordered, ordered[1:]):
        assert prev.end_t <= nxt.t0
    assert all(e.wheel in dm.WHEELS for e in events if e.kind in
               {"MTSC", "Wheelie", "IntenseTerrain"})
    assert plan_events("none", 100.0, seed=1) == []
    assert plan_events("mixed20", 2000.0, seed=1) == plan_events("mixed20", 2000.0, seed=1)
    with pytest.raises(DataError):
        plan_events("mixed100", 100.0, seed=1)  # cannot fit
    with pytest.raises(DataError):
        plan_events("earthquake3", 1000.0, seed=1)


def test_default_durations():
    assert DEFAULT_DURATION_S["MTSC"] == 1.5
    assert AnomalyEvent(kind="MTSC", t0=0.0, wheel="LF").duration == 1.5
    assert AnomalyEvent(kind="MTSC", t0=0.0, wheel="LF", duration_s=2.0).duration == 2.0


def test_labels_roundtrip(tmp_path):
    events = plan_events("mixed5", 400.0, seed=2)
    path = tmp_path / "labels.json"
    write_labels(events, path)
    back = read_labels(path)
    assert back == events


def test_profile_validation():
    with pytest.raises(DataError):
        NominalProfile(duration_s=2.0)
    with pytest.raises(DataError):
        NominalProfile(duration_s=10.0, wheel_current_offsets_a=(0.1,) * 6)
    with pytest.raises(DataError):
        NominalProfile(duration_s=10.0, current_noise_a=-1.0)
