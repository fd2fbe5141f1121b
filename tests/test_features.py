import json
import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from drivemon import features, parallel, pipeline, telemetry
from drivemon.derive import DerivedStream, derive_stream
from drivemon.detect import read_scores_csv, write_scores_csv
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
    featurize_csv,
    fit_scaler,
    _stats_block,
    stats7,
    window_arrays,
)
from drivemon.parallel import FORK_MIN_ROWS
from drivemon.telemetry import CSV_HEADER, read_stream, write_stream

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
    # the strided windows feature_matrix uses, a contiguous copy of them, and a copy whose
    # frame axis is fastest: the statistics' buffers must take each one's layout
    windows = np.swapaxes(sliding_window_view(values, frames, axis=0)[::8], 1, 2)
    frames_fastest = np.ascontiguousarray(np.swapaxes(windows, 1, 2)).swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf in the spoiled windows' moments
        for data in (windows, np.ascontiguousarray(windows), frames_fastest):
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


def test_scaler_json_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    scaler = fit_scaler(rng.random((5, 322)), variant="prime")
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


@pytest.mark.parametrize("error", [MemoryError, OSError])
def test_failed_featurizer_child_is_an_io_error(tmp_path, monkeypatch, four_cpus, error):
    """A featurize child that fails raises an OSError naming the drive and the child's
    windows, which the CLI maps to exit 3, and leaves no child behind."""
    path = tmp_path / "drive.csv"
    write_stream(make_stream(2 * FORK_MIN_ROWS, seed=13), path)
    parent, stats_block = os.getpid(), features._stats_block

    def failing(data, *scratch):
        if os.getpid() != parent:
            raise error("injected")
        return stats_block(data, *scratch)

    monkeypatch.setattr(features, "_stats_block", failing)
    n_windows = (2 * FORK_MIN_ROWS - 32) // 8 + 1
    with pytest.raises(OSError, match=re.escape(
            f"failed featurizing {path}: featurizer of windows "
            f"{round(n_windows / 2 / STATS_BLOCK_WINDOWS) * STATS_BLOCK_WINDOWS}-{n_windows - 1} "
            "exited with status 1")):
        pipeline._featurize(path, WindowSpec(), "prime")


# -- featurize_csv: each process parses, derives and featurizes its own rows --

def _one_process(path, spec=WindowSpec()):
    """feature_matrix(read_stream(path)), which runs in this process alone."""
    return feature_matrix(read_stream(path), spec, feature_mask("prime"))


def _assert_same_features(fused, single):
    assert fused[0].shape == single[0].shape and len(fused[0]) > 0
    for got, want in zip(fused, single):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stride_s", [0.125, 1.0, 2.0])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_featurize_csv_matches_one_process(tmp_path, monkeypatch, four_cpus, stride_s, blocks,
                                           extra):
    """Drives of FORK_MIN_ROWS * j + {-1, 0, 1} frames: one process per FORK_MIN_ROWS
    frames, this one featurizing whole blocks of windows, and X, start_t and sol byte
    for byte one process's read_stream then feature_matrix."""
    n = FORK_MIN_ROWS * blocks + extra
    path = tmp_path / "s.csv"
    write_stream(make_stream(n, seed=n), path)
    four_cpus.clear()
    spec = WindowSpec(stride_s=stride_s)
    blocks_here = []  # windows per _stats_block call in this process
    with monkeypatch.context() as m:
        m.setattr(features, "_stats_block",
                  lambda data, *scratch: blocks_here.append(len(data))
                  or _stats_block(data, *scratch))
        fused = featurize_csv(path, spec, feature_mask("prime"))
    assert len(four_cpus) == max(1, n // FORK_MIN_ROWS) - 1
    if four_cpus:
        assert set(blocks_here) == {STATS_BLOCK_WINDOWS}
    _assert_same_features(fused, _one_process(path, spec))


def _long_last_line(body: bytes) -> bytes:
    """The body with its last line's t cell padded by zeros to longer than the rest of
    the file, so a cut at the middle byte would land inside that line."""
    head, last = body.rstrip(b"\n").rsplit(b"\n", 1)
    t, rest = last.split(b",", 1)
    return head + b"\n" + t + b"0" * len(body) + b"," + rest + b"\n"


@pytest.mark.parametrize("layout", ["crlf", "no-final-newline", "long-last-line"])
@pytest.mark.parametrize("n", [2 * FORK_MIN_ROWS + 1, 3 * FORK_MIN_ROWS])
def test_featurize_csv_line_layouts(tmp_path, four_cpus, layout, n):
    path = tmp_path / "s.csv"
    write_stream(make_stream(n, seed=n), path)
    body = path.read_bytes()
    path.write_bytes({"crlf": lambda b: b.replace(b"\n", b"\r\n"),
                      "no-final-newline": lambda b: b[:-1],
                      "long-last-line": _long_last_line}[layout](body))
    four_cpus.clear()
    fused = featurize_csv(path, WindowSpec(), feature_mask("prime"))
    assert len(four_cpus) == n // FORK_MIN_ROWS - 1
    _assert_same_features(fused, _one_process(path))


#: Faults in one data line's cells, each named by its row in the error.
LINE_FAULTS = {
    "bad-cell": lambda cells: cells[:-1] + ["x"],
    "blank": lambda cells: [],
    "short": lambda cells: cells[:-1],
    "nan": lambda cells: cells[:-1] + ["nan"],
    "off-grid-t": lambda cells: [repr(float(cells[0]) + 0.01)] + cells[1:],
    "sol-decreases": lambda cells: [cells[0], str(int(cells[1]) - 1)] + cells[2:],
}


def _drive_with_faults(tmp_path, faults):
    """A 2 x FORK_MIN_ROWS-frame drive with faults {row: name of LINE_FAULTS}. At the
    default geometry its child reads rows FORK_MIN_ROWS on, and its parent reads the 24
    after its own as well."""
    path = tmp_path / "s.csv"
    write_stream(make_stream(2 * FORK_MIN_ROWS, seed=9), path)
    lines = path.read_text().split("\n")
    for row, fault in faults.items():
        lines[1 + row] = ",".join(LINE_FAULTS[fault](lines[1 + row].split(",")))
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("fault", LINE_FAULTS)
@pytest.mark.parametrize("rows", [[100], [FORK_MIN_ROWS - 1], [FORK_MIN_ROWS],
                                  [FORK_MIN_ROWS + 23], [FORK_MIN_ROWS + 24],
                                  [2 * FORK_MIN_ROWS - 1], [100, FORK_MIN_ROWS + 100]],
                         ids=["parent", "parent-last", "overlap-first", "overlap-last",
                              "child", "child-last", "parent-and-child"])
def test_featurize_csv_fault_is_one_process_error(tmp_path, four_cpus, fault, rows):
    """A fault in the parent's rows, in the overlap rows that both processes parse, in
    the child's rows, or in both processes' gives the error read_stream gives, naming
    the first faulty row."""
    path = _drive_with_faults(tmp_path, dict.fromkeys(rows, fault))
    four_cpus.clear()
    with pytest.raises(DataError) as fused:
        featurize_csv(path, WindowSpec(), feature_mask("prime"))
    assert len(four_cpus) == 1
    with pytest.raises(DataError) as single:
        read_stream(path)
    assert type(fused.value) is type(single.value)
    assert str(fused.value) == str(single.value)
    assert re.search(f"row {rows[0]}\\b", str(fused.value))


@pytest.mark.parametrize("row", [FORK_MIN_ROWS - 1, FORK_MIN_ROWS],
                         ids=["parent-last", "child-first"])
def test_featurize_csv_checks_the_step_between_blocks(tmp_path, four_cpus, row):
    """With windows that do not overlap (window_s == stride_s), a process's windows reach
    no row past its block, yet it parses the next block's first row: a sol that
    decreases at either side of the cut gives the error read_stream gives."""
    path = _drive_with_faults(tmp_path, {row: "sol-decreases"})
    four_cpus.clear()
    with pytest.raises(DataError) as fused:
        featurize_csv(path, WindowSpec(window_s=1.0, stride_s=1.0), feature_mask("prime"))
    assert len(four_cpus) == 1
    with pytest.raises(DataError) as single:
        read_stream(path)
    assert type(fused.value) is type(single.value)
    assert str(fused.value) == str(single.value) == f"{path}: sol decreases at row {row}"


def _fail_in_child(monkeypatch, phase, how="raise"):
    """Make every forked child fail in phase ("reading" or "featurizing"): raise
    MemoryError, or be killed by SIGKILL."""
    module, name = ((telemetry, "_parse_rows") if phase == "reading"
                    else (features, "_stats_block"))
    parent, real = os.getpid(), getattr(module, name)

    def failing(*args):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(module, name, failing)


N_WINDOWS = (2 * FORK_MIN_ROWS - 32) // 8 + 1  # of a 2 x FORK_MIN_ROWS-frame drive
CHILD_BLOCK = {  # what the child of such a drive reads and featurizes
    "reading": f"reader of rows {FORK_MIN_ROWS}-{2 * FORK_MIN_ROWS - 1}",
    "featurizing": f"featurizer of windows "
                   f"{round(N_WINDOWS / 2 / STATS_BLOCK_WINDOWS) * STATS_BLOCK_WINDOWS}-"
                   f"{N_WINDOWS - 1}",
}


@pytest.mark.parametrize("phase", ["reading", "featurizing"])
@pytest.mark.parametrize("how,status", [("raise", 1), ("killed", -signal.SIGKILL)])
def test_featurize_csv_failed_child_names_its_phase(tmp_path, monkeypatch, four_cpus, phase,
                                                    how, status):
    """A child that fails while parsing or while featurizing, even one killed outright,
    raises an OSError naming the file, that phase and the child's rows or windows."""
    path = tmp_path / "s.csv"
    write_stream(make_stream(2 * FORK_MIN_ROWS, seed=13), path)
    _fail_in_child(monkeypatch, phase, how)
    four_cpus.clear()
    with pytest.raises(OSError, match=re.escape(
            f"failed {phase} {path}: {CHILD_BLOCK[phase]} exited with status {status}")):
        featurize_csv(path, WindowSpec(), feature_mask("prime"))
    assert len(four_cpus) == 1


@pytest.mark.parametrize("fault,phase,expected", [
    ("sol-decreases", "featurizing", "sol decreases at row 100"),
    ("bad-cell", "featurizing", "unparsable cell at row 100"),
    ("sol-decreases", "reading", "failed reading"),
    ("bad-cell", "reading", "unparsable cell at row 100"),
])
def test_featurize_csv_error_precedence(tmp_path, monkeypatch, four_cpus, fault, phase,
                                        expected):
    """As read_stream then feature_matrix: a bad row before any child failure, a
    reader's failure before the stream's checks, which come before a featurizer's."""
    path = _drive_with_faults(tmp_path, {100: fault})
    _fail_in_child(monkeypatch, phase)
    with pytest.raises((DataError, OSError), match=expected) as exc:
        featurize_csv(path, WindowSpec(), feature_mask("prime"))
    assert isinstance(exc.value, OSError) == expected.startswith("failed")


@pytest.mark.parametrize("n", [1, 40, 2 * FORK_MIN_ROWS - 1])
def test_one_process_maps_no_shared_memory(tmp_path, monkeypatch, four_cpus, n):
    """A drive too short to split is read, and featurized, into plain arrays of this
    process: no shared memory is mapped, and nothing is forked."""
    path = tmp_path / "s.csv"
    stream = make_stream(n, seed=n)
    write_stream(stream, path)
    want = feature_matrix(stream, WindowSpec(), feature_mask("prime"))
    _refuse_shared_memory(monkeypatch)
    four_cpus.clear()
    table = telemetry.read_table(path, CSV_HEADER)
    assert np.array_equal(table[:, 2:], stream.values)
    assert read_stream(path).values.tobytes() == stream.values.tobytes()
    got = featurize_csv(path, WindowSpec(), feature_mask("prime"))
    assert four_cpus == []
    assert got[0].shape == (max(0, (n - 32) // 8 + 1), N_PRIME_FEATURES)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_readers_fork_nothing(tmp_path, monkeypatch, four_cpus):
    """Inputs long enough for three processes are read, and featurized from memory, in
    this process alone: read_scores_csv, read_stream and feature_matrix fork nothing, map
    no shared memory and return their input's bytes. Only featurize_csv forks a parse."""
    n = 3 * FORK_MIN_ROWS
    rng = np.random.default_rng(22)
    scores, start_t = rng.exponential(size=n), np.arange(n) * 1.0
    sol = np.full(n, 1000, dtype=np.int64)
    write_scores_csv(tmp_path / "scores.csv", scores, start_t, sol)
    stream = make_stream(n, seed=22)
    write_stream(stream, tmp_path / "s.csv")
    spec, mask = WindowSpec(), feature_mask("prime")
    four_cpus.clear()
    want = featurize_csv(tmp_path / "s.csv", spec, mask)
    assert len(four_cpus) == 2
    _refuse_shared_memory(monkeypatch)
    four_cpus.clear()
    got = read_scores_csv(tmp_path / "scores.csv")
    for a, b in zip(got, (scores, start_t, sol)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    read = read_stream(tmp_path / "s.csv")
    for name in ("t", "sol", "values"):
        assert getattr(read, name).tobytes() == getattr(stream, name).tobytes()
    for a, b in zip(feature_matrix(read, spec, mask), want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert four_cpus == []


def test_featurize_csv_maps_no_table(tmp_path, monkeypatch, four_cpus):
    """A drive split over three processes shares X, the window times and the per-process
    first non-finite features, never a (rows, len(CSV_HEADER)) table of the parsed CSV."""
    path = tmp_path / "s.csv"
    write_stream(make_stream(3 * FORK_MIN_ROWS, seed=23), path)
    shapes, real = [], parallel.shared_empty
    monkeypatch.setattr(parallel, "shared_empty",
                        lambda shape: shapes.append(shape) or real(shape))
    four_cpus.clear()
    featurize_csv(path, WindowSpec(), feature_mask("prime"))
    assert len(four_cpus) == 2
    assert ((3 * FORK_MIN_ROWS - 32) // 8 + 1, N_PRIME_FEATURES) in shapes  # X
    assert [shape for shape in shapes if shape[1:] == (len(CSV_HEADER),)] == []


def _refuse_shared_memory(monkeypatch):
    """Make parallel.shared_empty fail the test: any shared memory mapped is a fork's."""
    def refuse(shape):
        raise AssertionError(f"shared memory mapped for {shape}")

    monkeypatch.setattr(parallel, "shared_empty", refuse)


# -- featurize_csv scales each process's rows in the round -------------------

def _scaler_with_constants(X):
    """A scaler fitted to X with every tenth feature made constant."""
    min_, max_ = X.min(axis=0), X.max(axis=0)
    max_[::10] = min_[::10]
    return MinMaxScaler("prime", min_, max_)


@pytest.mark.parametrize("processes", ["forked", "one"])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_featurize_csv_scales_as_transform(tmp_path, monkeypatch, four_cpus, processes, blocks,
                                           extra):
    """Drives of FORK_MIN_ROWS * j + {-1, 0, 1} frames: X scaled in the round, constant
    features included, is bit for bit transform's scaling of the unscaled X."""
    n = FORK_MIN_ROWS * blocks + extra
    path = tmp_path / "s.csv"
    write_stream(make_stream(n, seed=n), path)
    spec, mask = WindowSpec(), feature_mask("prime")
    with monkeypatch.context() as m:
        if processes == "one":
            m.delattr(os, "fork")
        raw = featurize_csv(path, spec, mask)
        scaler = _scaler_with_constants(raw[0][::2])  # so that some rows leave [0, 1]
        four_cpus.clear()
        scaled = featurize_csv(path, spec, mask, scaler)
    assert len(four_cpus) == (max(1, n // FORK_MIN_ROWS) - 1 if processes == "forked" else 0)
    assert scaler.constant_features and len(scaled[0]) > 0
    want = scaler.transform(raw[0])
    assert scaled[0].tobytes() == want.tobytes()
    assert not np.array_equal(want, raw[0])
    for got, expected in zip(scaled[1:], raw[1:]):
        assert got.tobytes() == expected.tobytes()


def test_transform_writes_into_out():
    """transform(x, out=x) scales x in place with transform's bits."""
    x = np.array([[0.0, 5.0, 2.0], [4.0, 5.0, -1.0], [1.0, 5.0, 3.5]])
    scaler = fit_scaler(x[:2], variant="custom")
    want = scaler.transform(x)
    assert scaler.transform(x, out=x) is x
    assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("processes", ["forked", "one"])
@pytest.mark.parametrize("row", [100, 2 * FORK_MIN_ROWS - 100], ids=["parent", "child"])
def test_featurize_csv_names_the_first_overflowing_window(tmp_path, monkeypatch, four_cpus,
                                                          processes, row):
    """Telemetry that overflows the derived power in the parent's windows or in a child's
    is a DataError naming the file, its first non-finite window and feature, as the
    features of read_stream's stream show them."""
    path = tmp_path / "s.csv"
    write_stream(make_stream(2 * FORK_MIN_ROWS, seed=21), path)
    lines = path.read_text().split("\n")
    cells = lines[1 + row].split(",")
    for column in ("current_LF", "voltage_LF"):
        cells[CSV_HEADER.index(column)] = "1e200"
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines))
    spec, mask = WindowSpec(), feature_mask("prime")
    with np.errstate(over="ignore", invalid="ignore"):
        X, start_t, _ = _one_process(path)
    window, feature = divmod(int(np.flatnonzero(~np.isfinite(X))[0]), X.shape[1])
    assert window == (row - spec.window_frames) // spec.stride_frames + 1
    scaler = _scaler_with_constants(np.delete(X, np.flatnonzero(~np.isfinite(X).all(1)), 0))
    with monkeypatch.context() as m:
        if processes == "one":
            m.delattr(os, "fork")
        four_cpus.clear()
        with pytest.raises(DataError) as exc:
            featurize_csv(str(path), spec, mask, scaler)
    assert len(four_cpus) == (processes == "forked")
    assert str(exc.value) == (f"{path}: window {window} (start_t {float(start_t[window])}) has "
                              f"non-finite {mask.names()[feature]}; the telemetry overflows")
