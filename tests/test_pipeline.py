"""Library stage functions beyond what the CLI tests reach: memory held while scoring,
and calibrate's reuse of the scores that train stored."""

import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

import drivemon as dm
from drivemon import derive, detect, errors, features, net, pipeline, telemetry
from drivemon.synth import NominalProfile, generate_nominal


def _drop_calibration_record(art) -> None:
    """Remove pipeline.json's calibration record, so the next calibrate scores afresh."""
    doc = json.loads((art / "pipeline.json").read_text())
    del doc["calibration"]
    (art / "pipeline.json").write_text(json.dumps(doc) + "\n")


def test_calibrate_never_holds_raw_and_scaled_features_together(tmp_path):
    """Scaling rebinds the feature matrix, so an 1 800 s drive's calibration peaks under
    4.2x that matrix; raw and scaled features alive together would pass 4.7x."""
    data = tmp_path / "train.csv"
    dm.write_stream(generate_nominal(NominalProfile(duration_s=1800.0), 5), data)
    art = tmp_path / "art"
    dm.fit_pipeline(data, art, "prime", dm.TrainConfig(rng_seed=1, epochs=1))
    _drop_calibration_record(art)  # measure the path that scores the drive
    X, _, _ = pipeline._featurize(data, dm.WindowSpec(), "prime")
    tracemalloc.start()
    try:
        threshold = dm.calibrate_pipeline(data, art)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threshold.calibration_size == X.shape[0] == 1797
    assert peak < 4.2 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB matrix"


def test_featurize_never_holds_the_derived_stream(monkeypatch):
    """An 1 800 s drive (29 blocks of windows) featurizes from its raw telemetry a block
    at a time: beside X, the peak leaves no room for the (frames, 46) derived channels
    (8.3 MB measured, against X plus that array, 9.9 MB)."""
    stream = generate_nominal(NominalProfile(duration_s=1800.0), 5)
    monkeypatch.setattr(telemetry, "read_stream", lambda path: stream)  # made untraced
    tracemalloc.start()
    try:
        X, _, _ = pipeline._featurize("train.csv", dm.WindowSpec(), "prime")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    derived_nbytes = len(stream) * derive.N_DERIVED * 8
    assert X.shape[0] == 1797 > 28 * features.STATS_BLOCK_WINDOWS
    assert peak < X.nbytes + derived_nbytes, (f"peak {peak / 1e6:.2f} MB for a "
                                              f"{X.nbytes / 1e6:.2f} MB X")


# -- calibrate reuses train's scores only under a matching record ------------

CALIBRATION_OUTPUTS = ("threshold.json", "calibration_scores.csv")


@pytest.fixture(scope="module")
def drives(tmp_path_factory):
    """Two 240 s nominal drives (237 windows each, 119 at a 2 s stride), a prime model
    trained on the first, and two donors of swapped artifacts: another seed's model and
    another drive's scaler."""
    root = tmp_path_factory.mktemp("reuse")
    for name, seed in (("train.csv", 5), ("other.csv", 6)):
        dm.write_stream(generate_nominal(NominalProfile(duration_s=240.0), seed), root / name)
    for art, data, seed in (("art", "train.csv", 1), ("seed2", "train.csv", 2),
                            ("other_art", "other.csv", 1)):
        dm.fit_pipeline(root / data, root / art, "prime", dm.TrainConfig(rng_seed=seed, epochs=1))
    return root


@pytest.fixture
def counted_reads(monkeypatch):
    """A list that gains one entry per telemetry.read_stream call."""
    calls = []
    read_stream = telemetry.read_stream

    def counting(path):
        calls.append(path)
        return read_stream(path)

    monkeypatch.setattr(telemetry, "read_stream", counting)
    return calls


def _fresh(tmp_path, art, data, **kwargs):
    """Calibration outputs of a copy of art made to score data afresh, by name."""
    fresh = tmp_path / "fresh"
    shutil.copytree(art, fresh)
    _drop_calibration_record(fresh)
    dm.calibrate_pipeline(data, fresh, **kwargs)
    return {name: (fresh / name).read_bytes() for name in CALIBRATION_OUTPUTS}


@pytest.mark.parametrize("percentile", [99.9, 99.0])
def test_calibrate_reuses_the_training_scores(tmp_path, drives, counted_reads, percentile):
    """After train, calibrate on the same CSV parses nothing, and writes the bytes that a
    calibrate scoring the drive afresh writes."""
    art = tmp_path / "art"
    shutil.copytree(drives / "art", art)
    expected = _fresh(tmp_path, drives / "art", drives / "train.csv", percentile=percentile)
    del counted_reads[:]
    threshold = dm.calibrate_pipeline(drives / "train.csv", art, percentile=percentile)
    assert counted_reads == []
    assert threshold.calibration_size == 237
    assert {name: (art / name).read_bytes() for name in CALIBRATION_OUTPUTS} == expected


def _other_content(art, drives, tmp_path):
    data = tmp_path / "train.csv"
    data.write_bytes((drives / "train.csv").read_bytes())
    dm.calibrate_pipeline(data, art)  # the record now names this path's content
    data.write_bytes((drives / "other.csv").read_bytes())
    return data, {}


def _other_stride(art, drives, tmp_path):
    return drives / "train.csv", {"stride_s": 2.0}


def _other_model(art, drives, tmp_path):
    for name in ("model.json", "model.params"):
        shutil.copy(drives / "seed2" / name, art / name)
    return drives / "train.csv", {}


def _other_scaler(art, drives, tmp_path):
    shutil.copy(drives / "other_art" / "scaler.json", art / "scaler.json")
    return drives / "train.csv", {}


def _edited_scores(art, drives, tmp_path):
    path = art / "calibration_scores.csv"
    lines = path.read_text().splitlines()
    sol, start_t, _ = lines[1].split(",")
    lines[1] = f"{sol},{start_t},1e9"  # would become the p99.9 threshold if read
    path.write_text("\n".join(lines) + "\n")
    return drives / "train.csv", {}


def _missing_scores(art, drives, tmp_path):
    (art / "calibration_scores.csv").unlink()
    return drives / "train.csv", {}


def _stale_record(art, drives, tmp_path):
    dm.calibrate_pipeline(drives / "other.csv", art)
    return drives / "train.csv", {}


@pytest.mark.parametrize("change", [
    _other_content, _other_stride, _other_model, _other_scaler, _edited_scores,
    _missing_scores, _stale_record,
], ids=["csv-content", "stride", "model", "scaler", "scores-edited", "scores-missing",
        "stale-record"])
def test_calibrate_recomputes_when_the_record_does_not_match(tmp_path, drives, counted_reads,
                                                             change):
    """Any input that differs from the record, or a scores file that is not the recorded
    one, makes calibrate score the drive: its outputs equal a fresh calibration's, and
    the rewritten record lets the next identical calibrate reuse them."""
    art = tmp_path / "art"
    shutil.copytree(drives / "art", art)
    data, kwargs = change(art, drives, tmp_path)
    expected = _fresh(tmp_path, art, data, **kwargs)
    del counted_reads[:]
    dm.calibrate_pipeline(data, art, **kwargs)
    assert counted_reads == [data]
    assert {name: (art / name).read_bytes() for name in CALIBRATION_OUTPUTS} == expected
    dm.calibrate_pipeline(data, art, **kwargs)
    assert counted_reads == [data]


def test_calibrate_without_a_record_scores_the_drive(tmp_path, drives, counted_reads):
    """A pipeline.json without a calibration record, as an older train wrote it, recomputes."""
    art = tmp_path / "art"
    shutil.copytree(drives / "art", art)
    _drop_calibration_record(art)
    scores_before = (art / "calibration_scores.csv").read_bytes()
    del counted_reads[:]
    dm.calibrate_pipeline(drives / "train.csv", art)
    assert counted_reads == [drives / "train.csv"]
    assert (art / "calibration_scores.csv").read_bytes() == scores_before
    assert "calibration" in json.loads((art / "pipeline.json").read_text())


def test_calibrate_reads_each_json_artifact_once(tmp_path, drives, monkeypatch):
    """One calibrate parses model.json, scaler.json and pipeline.json once each, reusing
    the stored scores or scoring the drive afresh."""
    reads = []

    def counting(path, *args, **kwargs):
        reads.append(Path(path).name)
        return errors.read_json(path, *args, **kwargs)

    for module in (detect, features, net, pipeline):
        monkeypatch.setattr(module, "read_json", counting)
    art = tmp_path / "art"
    shutil.copytree(drives / "art", art)
    for _ in ("reused", "fresh"):
        del reads[:]
        dm.calibrate_pipeline(drives / "train.csv", art)
        assert sorted(reads) == ["model.json", "pipeline.json", "scaler.json"]
        _drop_calibration_record(art)


def test_each_stage_hashes_the_parameters_once(tmp_path, drives, monkeypatch):
    """fit, calibrate and detect each take one SHA-256 of the 2.4 MB parameter buffer:
    save_model's or load_model's, which the calibration record reuses."""
    sizes = []
    sha256 = net._sha256
    monkeypatch.setattr(net, "_sha256", lambda raw: sizes.append(len(raw)) or sha256(raw))
    art, data = tmp_path / "art", drives / "train.csv"
    stages = {
        "fit": lambda: dm.fit_pipeline(data, art, "prime", dm.TrainConfig(rng_seed=1, epochs=1)),
        "calibrate": lambda: dm.calibrate_pipeline(data, art),
        "detect": lambda: dm.detect_pipeline(drives / "other.csv", art),
        "detect --percentile": lambda: dm.detect_pipeline(drives / "other.csv", art, 50.0),
    }
    counts = {}
    for name, stage in stages.items():
        del sizes[:]
        stage()
        counts[name] = sum(size >= 1 << 20 for size in sizes)
    assert counts == dict.fromkeys(stages, 1)
