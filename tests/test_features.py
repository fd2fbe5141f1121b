import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivemon.derive import DerivedStream, derive_stream
from drivemon.errors import ArtifactError, DataError
from drivemon.features import (
    N_PRIME_FEATURES,
    N_REFINED_FEATURES,
    STATS,
    FeatureId,
    MinMaxScaler,
    WindowSpec,
    feature_mask,
    feature_matrix,
    fit_scaler,
    stats7,
    window_arrays,
)

from conftest import make_stream
from oracles import stats7_oracle, window_count_oracle

# frozen output of the brute-force oracle for samples 1..32
STATS7_1_TO_32 = [16.5, 9.233092656309694, -1.2023460410557185, 0.0, 1.0, 32.0, 16.5]


def derived(n, seed=0):
    return derive_stream(make_stream(n, seed=seed))


def test_window_spec_geometry():
    spec = WindowSpec()
    assert spec.window_frames == 32
    assert spec.stride_frames == 8
    with pytest.raises(DataError):
        WindowSpec(window_s=0.3)  # 2.4 frames
    with pytest.raises(DataError):
        WindowSpec(window_s=0.125)  # single frame


@pytest.mark.parametrize("n,expected", [(32, 1), (40, 2), (31, 0), (39, 1), (48, 3)])
def test_window_counts(n, expected):
    stream = derived(n)
    if expected == 0:
        with pytest.warns(UserWarning):
            data, start_t, sol = window_arrays(stream)
    else:
        data, start_t, sol = window_arrays(stream)
    assert data.shape == (expected, 32, 46)
    assert len(start_t) == len(sol) == expected


def test_window_counts_match_enumerator():
    # brute-force enumerator over a sample of lengths (full sweep in acceptance)
    for n in list(range(32, 200)) + [511, 512, 513, 1000]:
        stream = derived(n, seed=1)
        assert window_arrays(stream)[0].shape[0] == window_count_oracle(n)


def test_window_starts_and_metadata():
    stream = derived(48, seed=2)
    data, start_t, sol = window_arrays(stream)
    assert start_t[0] == stream.t[0]
    assert start_t[1] == stream.t[8]
    assert sol[0] == int(stream.sol[0])
    assert data[0].shape == (32, 46)
    assert np.array_equal(data[1], stream.values[8:40])


def test_stats7_constant_window():
    out = stats7(np.full(32, 3.7))
    assert np.array_equal(out, [3.7, 0.0, 0.0, 0.0, 3.7, 3.7, 3.7])


def test_stats7_symmetric_skew_zero():
    x = np.array([1.5, -1.5, 0.25, -0.25, 2.0, -2.0, 0.75, -0.75])
    out = stats7(x)
    assert out[STATS.index("skew")] == 0.0


def test_stats7_frozen_oracle_values():
    out = stats7(np.arange(1.0, 33.0))
    assert np.max(np.abs(out - np.array(STATS7_1_TO_32))) < 1e-10


def test_stats7_random_windows_match_oracle(rng):
    for _ in range(100):
        x = rng.standard_normal(32)
        assert np.max(np.abs(stats7(x) - np.array(stats7_oracle(x)))) < 1e-10


def test_stats7_requires_two_samples():
    with pytest.raises(DataError):
        stats7([1.0])


@given(st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
                min_size=2, max_size=64))
def test_stats7_bounds(xs):
    mean, _, _, _, mn, mx, med = stats7(xs)
    assert mn <= med <= mx
    assert mn <= mean + 1e-12 and mean <= mx + 1e-12


# values on a 0.01 grid: a shift must not be allowed to absorb the spread
# entirely, which would change the statistics for float reasons, not
# algorithmic ones
grid = st.integers(min_value=-10000, max_value=10000).map(lambda k: k / 100.0)


@settings(max_examples=50)
@given(st.lists(grid, min_size=4, max_size=64), grid)
def test_stats7_shift_covariance(xs, c):
    base = stats7(xs)
    shifted = stats7([x + c for x in xs])
    # mean, min, max, median move by c; std, skew, kurt stay put
    for idx in (0, 4, 5, 6):
        assert abs(shifted[idx] - (base[idx] + c)) <= 1e-9
    for idx in (1, 2, 3):
        assert abs(shifted[idx] - base[idx]) <= 1e-9


def test_feature_id_indexing():
    fid = FeatureId(channel="accel_Z", stat="std")
    assert fid.index == 38 * 7 + 1
    assert str(fid) == "std(accel[Z])"
    assert str(FeatureId(channel="pdev_LF", stat="kurt")) == "kurt(PD[LF])"
    assert str(FeatureId(channel="current_RR", stat="max")) == "max(C[RR])"


def test_masks():
    prime = feature_mask("prime")
    refined = feature_mask("refined")
    assert len(prime) == N_PRIME_FEATURES == 322
    assert len(refined) == N_REFINED_FEATURES == 301
    # index map is a bijection onto 0..321 in order
    assert [f.index for f in prime.kept] == list(range(322))
    # refined indices are a strict order-preserving subsequence of prime
    ridx = [f.index for f in refined.kept]
    assert sorted(ridx) == ridx and len(set(ridx)) == len(ridx)
    assert set(ridx).issubset(set(range(322)))
    dropped = set(range(322)) - set(ridx)
    assert len(dropped) == 21
    assert all(prime.kept[i].channel.startswith("accel_") for i in dropped)
    with pytest.raises(DataError):
        feature_mask("bogus")


def test_featurize_lengths_and_zero_window():
    stream = derived(32, seed=4)
    assert feature_matrix(stream, WindowSpec(), feature_mask("prime"))[0].shape == (1, 322)
    assert feature_matrix(stream, WindowSpec(), feature_mask("refined"))[0].shape == (1, 301)
    zero = DerivedStream(t=stream.t.copy(), sol=stream.sol.copy(), values=np.zeros((32, 46)))
    X, _, _ = feature_matrix(zero, WindowSpec(), feature_mask("prime"))
    assert np.array_equal(X, np.zeros((1, 322)))


def test_feature_matrix_matches_stats7_oracle():
    stream = derived(64, seed=6)
    spec = WindowSpec()
    for variant in ("prime", "refined"):
        mask = feature_mask(variant)
        X, start_t, sol = feature_matrix(stream, spec, mask)
        n = window_count_oracle(64)
        assert X.shape == (n, len(mask))
        for i in range(n):
            frames = slice(8 * i, 8 * i + 32)
            assert start_t[i] == stream.t[frames.start]
            assert sol[i] == stream.sol[frames.start]
            for ch in range(46):
                expected = stats7_oracle(stream.values[frames, ch])
                for j in np.flatnonzero(mask.indices // 7 == ch):
                    stat = mask.indices[j] % 7
                    assert abs(X[i, j] - expected[stat]) <= 1e-10


def test_fit_scaler_examples():
    X = np.array([[2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    scaler = fit_scaler(X, variant="custom")
    assert scaler.min_[0] == 2.0 and scaler.max_[0] == 4.0
    assert scaler.constant_features == [1]


def test_fit_scaler_identical_vectors_all_constant():
    X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    scaler = fit_scaler(X, variant="custom")
    assert scaler.constant_features == [0, 1, 2]


def test_fit_scaler_guards():
    with pytest.raises(DataError):
        fit_scaler(np.empty((0, 3)), variant="custom")
    with pytest.raises(DataError):
        fit_scaler(np.array([[1.0, 2.0]]), variant="custom")  # single sample
    with pytest.raises(DataError):
        fit_scaler(np.zeros(3), variant="custom")  # a vector, not a matrix
    with pytest.raises(DataError):
        fit_scaler(np.array([[1.0, np.nan], [2.0, 3.0]]), variant="custom")


def test_transform_examples():
    scaler = MinMaxScaler("custom", np.array([2.0, 5.0]), np.array([4.0, 5.0]))
    out = scaler.transform(np.array([3.0, 7.0]))
    assert out[0] == 0.5
    assert out[1] == 0.0  # constant feature maps to 0 regardless of input
    assert scaler.transform(np.array([5.0, 0.0]))[0] == 1.5  # no clamping
    with pytest.raises(DataError):
        scaler.transform(np.zeros(3))


def test_transform_fitting_set_spans_unit_interval(rng):
    X = rng.normal(0.0, 3.0, size=(40, 9))
    scaler = fit_scaler(X, variant="custom")
    T = scaler.transform(X)
    assert T.min() >= 0.0 and T.max() <= 1.0
    assert np.allclose(T.min(axis=0), 0.0)
    assert np.allclose(T.max(axis=0), 1.0)


def test_scaler_variant_inference():
    rng = np.random.default_rng(0)
    assert fit_scaler(rng.random((3, 322))).variant == "prime"
    assert fit_scaler(rng.random((3, 301))).variant == "refined"
    with pytest.raises(DataError):
        fit_scaler(rng.random((3, 5)))  # width matches no variant


def test_scaler_json_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    scaler = fit_scaler(rng.random((5, 322)))
    path = tmp_path / "scaler.json"
    scaler.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"variant", "min", "max", "constant"}
    back = MinMaxScaler.load(path)
    assert back.variant == scaler.variant
    assert np.array_equal(back.min_, scaler.min_)
    assert np.array_equal(back.max_, scaler.max_)
    with pytest.raises(ArtifactError):
        path.write_text("{not json")
        MinMaxScaler.load(path)
