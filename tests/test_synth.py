import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import drivemon as dm
from drivemon import synth
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
from oracles import bounded_walk_oracle


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
    stream = generate_nominal(NominalProfile(duration_s=1000.0), 7)
    for w, off in zip(dm.WHEELS, synth.WHEEL_CURRENT_OFFSETS_A):
        cur = stream.channel(f"current_{w}")
        base = synth.BASE_CURRENT_A + off
        assert np.max(np.abs(cur - base)) < 6.0 * synth.CURRENT_NOISE_A


def test_suspension_within_clamp():
    stream = generate_nominal(NominalProfile(duration_s=500.0), 3)
    for name in ("bogie_L", "bogie_R", "diff_L", "diff_R"):
        assert np.max(np.abs(stream.channel(name))) <= synth.SUSPENSION_CLAMP_RAD


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10000])
@pytest.mark.parametrize("step_sd", [synth.SUSPENSION_STEP_RAD, 0.05])
def test_bounded_walk_matches_the_scalar_loop(monkeypatch, n, step_sd):
    """The walk over Python floats, a block at a time, is byte for byte the loop over
    numpy scalars, at the clamp too (0.05 rad steps reach it)."""
    monkeypatch.setattr(synth, "SUSPENSION_STEP_RAD", step_sd)
    walk = synth._bounded_walk(np.random.default_rng(n), n)
    ref = bounded_walk_oracle(np.random.default_rng(n), n, step_sd, synth.SUSPENSION_REVERSION,
                              synth.SUSPENSION_CLAMP_RAD)
    assert walk.tobytes() == ref.tobytes()
    if step_sd == 0.05 and n > 1000:
        assert np.count_nonzero(np.abs(walk) == synth.SUSPENSION_CLAMP_RAD) > 10


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
    base = nominal_60s()
    event = AnomalyEvent(kind="RockDrop", t0=20.0)
    injected = inject(base, event, 1)
    z = injected.channel("accel_Z")[in_event(base, event)]
    assert np.max(np.abs(z)) >= 5.0 * 6.0 * synth.ACCEL_Z_NOISE_MS2
    # 30% of the ring couples into accel_X
    x = injected.channel("accel_X")[in_event(base, event)]
    x0 = base.channel("accel_X")[in_event(base, event)]
    assert np.max(np.abs(x - x0)) >= 0.8 * 0.3 * 3.0


def test_mtsc_targets_one_wheel_only():
    base = nominal_60s()
    event = AnomalyEvent(kind="MTSC", t0=20.0, wheel="LR")
    injected = inject(base, event, 1)
    mask = in_event(base, event)
    assert np.max(injected.channel("current_LR")[mask]) >= 3.0 * synth.BASE_CURRENT_A
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
    base = nominal_60s()
    event = AnomalyEvent(kind="IntenseTerrain", t0=20.0, wheel="LM")
    injected = inject(base, event, 1)
    mask = in_event(base, event)
    assert np.max(injected.channel("current_LM")[mask]) >= 3.0 * synth.BASE_CURRENT_A
    assert np.min(injected.channel("rate_LM")[mask]) <= 0.2 * synth.WHEEL_RATE_RAD_S
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
    ("severity", float("inf")), ("severity", -1.0), ("t0", True), ("duration", "3.0"),
    ("severity", False),
])
def test_labels_refuse_non_finite_or_non_positive(tmp_path, field, value):
    """NaN passes a `<= 0` check and float() reads true as 1.0; each bad event is refused,
    naming the event and the field."""
    good = {"kind": "RockDrop", "t0": 10.0, "duration": 3.0, "wheel": None, "severity": 1.0}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps([good, {**good, "t0": 20.0, field: value}]))
    # a value that is not a finite number is refused as read; a non-positive one by the event
    with pytest.raises(DataError, match=f"labels.json: event 1: (bad value in )?field '{field}'"):
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


def test_make_dataset_equals_injecting_each_event():
    events = plan_events("mixed5", 120.0, seed=3)
    _, labeled = make_dataset(40.0, 120.0, events, seed=3)
    children = np.random.SeedSequence(3).spawn(2 + len(events))
    test = generate_nominal(NominalProfile(duration_s=120.0, sol=1001), children[1])
    for i, ev in enumerate(labeled.events):
        test = inject(test, ev, children[2 + i])
    assert np.array_equal(labeled.stream.values, test.values)


def test_make_dataset_refuses_a_profile_of_another_length():
    """The training drive is train_s long; a profile that says otherwise is refused."""
    with pytest.raises(DataError, match="duration_s 9999.0 differs from train_s 40.0"):
        make_dataset(40.0, 40.0, [], 1, profile=NominalProfile(duration_s=9999.0, sol=5))
    train, _ = make_dataset(40.0, 40.0, [], 1, profile=NominalProfile(duration_s=40.0, sol=5))
    assert len(train) == 320 and int(train.sol[0]) == 5


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


def test_plan_events_refuses_a_count_before_expanding_it():
    """More events than the usable seconds can never fit, and are refused before a list
    of kinds is built, so a million-event mix peaks under 1 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="do not fit"):
            plan_events("mixed1000000", 100.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("mix", ["rockdrop1", "rockdrop99999999999999999999"])
def test_plan_events_refuses_a_test_drive_of_2_to_the_53_frames(mix):
    """A mix whose count fits a test drive of 2^53 frames or more is refused before its
    events are listed, as such a drive can never be drawn."""
    with pytest.raises(DataError, match="2\\^53 frames"):
        plan_events(mix, 1e300, 1)


def test_default_durations():
    assert DEFAULT_DURATION_S["MTSC"] == 1.5
    assert AnomalyEvent(kind="MTSC", t0=0.0, wheel="LF").duration_s == 1.5
    assert AnomalyEvent(kind="MTSC", t0=0.0, wheel="LF", duration_s=2.0).duration_s == 2.0


def test_labels_roundtrip(tmp_path):
    events = plan_events("mixed5", 400.0, seed=2)
    path = tmp_path / "labels.json"
    write_labels(events, path)
    back = read_labels(path)
    assert back == events


def test_profile_validation():
    with pytest.raises(DataError):
        NominalProfile(duration_s=2.0)
    # NaN fails every comparison, so a `< 4.0` check alone would let it through
    for duration in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="duration"):
            NominalProfile(duration_s=duration)


def test_profile_refuses_2_to_the_53_frames():
    """A drive of 2^53 frames or more, whose frame indices a float64 cannot all hold, is
    refused before any array is allocated; one frame fewer passes the check."""
    for duration in (2.0**50, 1e16, 1e300):
        with pytest.raises(DataError, match="under 2\\^53 frames"):
            NominalProfile(duration_s=duration)
    assert NominalProfile(duration_s=2.0**50 - 0.125).duration_s == 2.0**50 - 0.125


@pytest.mark.parametrize("sol", [1000.7, True, "1000", 2**63, -2**63 - 1, 2**53, -2**53],
                         ids=["fraction", "bool", "text", "above-int64", "below-int64",
                              "above-2^53", "below-2^53"])
def test_profile_sol_is_a_64_bit_whole_number(sol):
    """np.full would truncate 1000.7 to 1000 and read True as 1; each is refused, and so
    is a sol that a float64 CSV cell cannot hold exactly."""
    with pytest.raises(DataError, match="field 'sol'"):
        NominalProfile(duration_s=8.0, sol=sol)


@pytest.mark.parametrize("sol", [1 - 2**53, 2**53 - 1, np.int64(1000), 1000])
def test_profile_sol_accepts_int64_values(sol):
    """Every int64 sol below 2^53 in magnitude is accepted."""
    assert int(generate_nominal(NominalProfile(duration_s=8.0, sol=sol), 1).sol[0]) == sol


def test_profile_is_a_duration_and_a_sol():
    assert [f.name for f in dataclasses.fields(NominalProfile)] == ["duration_s", "sol"]


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def test_synthetic_bytes_are_pinned():
    """The generated and derived bits are pinned, so a refactor must leave them unchanged.

    One that reorders the random draws, for instance, fails here before it
    changes a dataset or a trained model.
    """
    train, labeled = make_dataset(60.0, 120.0, plan_events("mixed5", 120.0, 7), 7)
    streams = (train, labeled.stream)
    assert _sha256(a for s in streams for a in (s.t, s.sol, s.values)) == (
        "61d232c6802f382110f5042a7069e5fba9a422a26bcb8f097a283cffe9f2805c")
    derived = [dm.derive_stream(s) for s in streams]
    assert _sha256(a for d in derived for a in (d.t, d.sol, d.values)) == (
        "ae319db38016647aecc6337f8b2c97fe242670639e2969dea36b238a15a4675c")
