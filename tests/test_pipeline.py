"""Library stage functions beyond what the CLI tests reach: memory held while scoring."""

import tracemalloc

import drivemon as dm
from drivemon import pipeline
from drivemon.synth import NominalProfile, generate_nominal


def test_calibrate_never_holds_raw_and_scaled_features_together(tmp_path):
    """Scaling rebinds the feature matrix, so an 1 800 s drive's calibration peaks under
    4.2x that matrix; raw and scaled features alive together would pass 4.7x."""
    data = tmp_path / "train.csv"
    dm.write_stream(generate_nominal(NominalProfile(duration_s=1800.0), 5), data)
    art = tmp_path / "art"
    dm.fit_pipeline(data, art, "prime", dm.TrainConfig(rng_seed=1, epochs=1))
    X, _, _ = pipeline._featurize(data, dm.WindowSpec(), "prime")
    tracemalloc.start()
    try:
        threshold = dm.calibrate_pipeline(data, art)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threshold.calibration_size == X.shape[0] == 1797
    assert peak < 4.2 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB matrix"
