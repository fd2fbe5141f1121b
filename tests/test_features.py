import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from drivemon.derive import DerivedStream, derive_stream
from drivemon.errors import ArtifactError, DataError
from drivemon.features import (
    N_PRIME_FEATURES,
    N_REFINED_FEATURES,
    STATS,
    STATS_BLOCK_WINDOWS,
    FeatureId,
    MinMaxScaler,
    WindowSpec,
    feature_mask,
    feature_matrix,
    fit_scaler,
    _stats_block,
    stats7,
    window_arrays,
)

from conftest import make_stream
from oracles import reference_stats_block, stats7_oracle, window_count_oracle

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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a short drive is the caller's error to report
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


def test_masks_are_built_once_and_read_only():
    for variant in ("prime", "refined"):
        mask = feature_mask(variant)
        assert feature_mask(variant) is mask
        assert not mask.indices.flags.writeable
        with pytest.raises(AttributeError):
            mask.variant = "prime"


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


def awkward_columns(rng, n):
    """Seven columns of n samples that stress the window statistics' rounding."""
    return [
        rng.standard_normal(n),                              # all distinct
        rng.integers(-2, 3, n) * 0.5,                        # heavy ties
        np.full(n, 3.7),                                     # constant
        rng.integers(1, 6, n) * 5e-324,                      # subnormal
        rng.standard_normal(n) * 1e-310,                     # subnormal scale
        rng.standard_normal(n) * 1e150,                      # huge
        np.round(rng.standard_normal(n), 1) * 1e5 + 7.0,     # ties away from zero
    ]


@pytest.mark.parametrize("frames", [31, 32])
def test_stats_block_bitwise_matches_reference(frames):
    """The one-sort min/max/median equals the np.min/np.max/np.median form bit for bit."""
    rng = np.random.default_rng(frames)
    values = np.column_stack(awkward_columns(rng, 200))
    values[[40, 41, 90], [0, 3, 5]] = [np.nan, np.inf, -np.inf]  # spoils a few windows
    # the strided windows feature_matrix uses, and a contiguous copy of them
    windows = np.swapaxes(sliding_window_view(values, frames, axis=0)[::8], 1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf in the spoiled windows' moments
        for data in (windows, np.ascontiguousarray(windows)):
            assert _stats_block(data).tobytes() == reference_stats_block(data).tobytes()


def _edge_values(frames, seed):
    """46 channels of awkward columns, with NaNs on the first block edge and one inf."""
    rng = np.random.default_rng(seed)
    values = np.column_stack([c for _ in range(7) for c in awkward_columns(rng, frames)][:46])
    # frame 504 is in windows 60-63, the end of the first block; frame 543 in 64-67
    for frame, ch in ((504, 0), (543, 5), (543, 8)):
        if frame < frames:
            values[frame, ch] = np.nan
    if frames > 40:
        values[40, 3] = np.inf
    return values


@pytest.mark.parametrize("n_windows", [1, 63, 64, 65, 129])
def test_feature_matrix_blocks_bitwise_match_reference(n_windows):
    """Blocked feature_matrix equals the whole-drive reference bit for bit, block edges too."""
    assert STATS_BLOCK_WINDOWS == 64
    spec = WindowSpec()
    frames = spec.stride_frames * (n_windows - 1) + spec.window_frames
    values = _edge_values(frames, seed=n_windows)
    stream = DerivedStream(t=np.arange(frames) / 8.0, sol=np.full(frames, 1000, np.int64),
                           values=values)
    windows = np.swapaxes(sliding_window_view(values, 32, axis=0)[::8], 1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf in the spoiled windows' moments
        full = reference_stats_block(windows).reshape(n_windows, -1)
        for variant in ("prime", "refined"):
            mask = feature_mask(variant)
            X, start_t, _ = feature_matrix(stream, spec, mask)
            assert X.tobytes() == np.ascontiguousarray(full[:, mask.indices]).tobytes()
    assert len(start_t) == n_windows
    if n_windows > 64:
        assert np.isnan(X[63, 0]) and np.isnan(X[64, 5 * 7])


@pytest.mark.parametrize("stride_s", [1.0, 0.125, 2.0])
@pytest.mark.parametrize("n_windows", [0, 1, 63, 64, 65, 129])
def test_feature_matrix_derives_raw_telemetry_block_by_block(n_windows, stride_s):
    """Handed raw telemetry, feature_matrix derives one block's frames at a time and
    returns the bytes of featurizing the whole derived stream, block edges included."""
    spec = WindowSpec(stride_s=stride_s)
    frames = (spec.stride_frames * (n_windows - 1) + spec.window_frames if n_windows
              else spec.window_frames - 1)
    stream = make_stream(frames, seed=n_windows)
    for variant in ("prime", "refined"):
        mask = feature_mask(variant)
        got = feature_matrix(stream, spec, mask)
        want = feature_matrix(derive_stream(stream), spec, mask)
        assert got[0].shape == (n_windows, len(mask))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_feature_matrix_memory_is_bounded_by_a_block():
    """Temporaries are sized for one block: the peak stays under 3x the result."""
    stream = derived(8 * 1999 + 32, seed=9)  # 2 000 windows
    tracemalloc.start()
    try:
        X, _, _ = feature_matrix(stream, WindowSpec(), feature_mask("prime"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (2000, 322)
    assert peak < 3 * X.nbytes, f"peak {peak / 1e6:.1f} MB for a {X.nbytes / 1e6:.1f} MB result"


def test_scaler_rejects_non_finite_bounds():
    with pytest.raises(DataError, match="scaler min is not finite at feature 1"):
        MinMaxScaler("custom", np.array([0.0, np.nan]), np.array([1.0, 1.0]))
    with pytest.raises(DataError, match="scaler max is not finite at feature 0"):
        MinMaxScaler("custom", np.array([0.0, 0.0]), np.array([np.inf, 1.0]))


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
