import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drivemon.detect import (
    SCORE_BLOCK_ROWS,
    SCORES_CHUNK_ROWS,
    FlagRecord,
    Threshold,
    calibrate,
    flag,
    nearest_rank,
    read_report_json,
    read_scores_csv,
    score_matrix,
    write_report_csv,
    write_report_json,
    write_scores_csv,
)
from drivemon.errors import ArtifactError, DataError
from drivemon.features import MinMaxScaler, feature_mask
from drivemon.net import build_model, forward, new_model

import numpy.testing as npt

from oracles import nearest_rank_oracle, top_contributors


def identity_model(d, variant="custom"):
    model = new_model((d, d), ("linear",), seed=0, variant=variant)
    model.weights[0][...] = np.eye(d)
    return model


def unit_scaler(d, variant="custom"):
    return MinMaxScaler(variant, np.zeros(d), np.ones(d))


def test_one_norm_example():
    model = identity_model(3)
    model.weights[0][...] = np.zeros((3, 3))  # reconstructs 0, so the residual is x
    scores, E = score_matrix(model, unit_scaler(3).transform(np.array([0.1, -0.2, 0.3])))
    assert np.array_equal(E, [[0.1, -0.2, 0.3]])
    assert scores[0] == pytest.approx(0.6, abs=1e-15)


def test_perfect_reconstruction_scores_zero():
    model = identity_model(6)
    scaler = unit_scaler(6)
    X = np.array([[0.1, 0.9, 0.5, 0.2, 0.7, 0.3], [0.4, 0.0, 1.0, 0.6, 0.8, 0.5]])
    scores, E = score_matrix(model, scaler.transform(X))
    assert np.array_equal(scores, np.zeros(2))
    assert np.array_equal(E, np.zeros((2, 6)))


def test_scores_nonnegative(rng):
    model = identity_model(8)
    model.weights[0][...] = rng.standard_normal((8, 8))
    scores, _ = score_matrix(model, unit_scaler(8).transform(rng.standard_normal((20, 8))))
    assert scores.shape == (20,)
    assert np.all(scores >= 0.0)


def test_score_matrix_matches_score(rng):
    model = identity_model(5)
    model.weights[0][...] = rng.standard_normal((5, 5)) * 0.3
    scaler = MinMaxScaler("custom", -np.ones(5), np.ones(5) * 2.0)
    X = rng.standard_normal((10, 5))
    scores, E = score_matrix(model, scaler.transform(X))
    for i in range(10):
        one_score, one_e = score_matrix(model, scaler.transform(X[i]))
        npt.assert_allclose(scores[i], one_score[0], rtol=0, atol=1e-12)
        # batched GEMM and single-vector GEMV may differ by an ulp
        npt.assert_allclose(E[i], one_e[0], rtol=0, atol=1e-12)


def test_score_matrix_rejects_non_finite_scores():
    model = identity_model(4)
    model.weights[0][2, 1] = 1e308
    X = np.zeros((3, 4))
    X[1, 1] = 10.0  # only window 1 overflows to an infinite reconstruction
    with np.errstate(over="ignore"), pytest.raises(ArtifactError, match="window 1"):
        score_matrix(model, unit_scaler(4).transform(X))


def prime_rows(n, seed=0):
    """A prime model, a scaler with non-trivial spans and n raw feature rows."""
    rng = np.random.default_rng(seed)
    lo = rng.standard_normal(322)
    scaler = MinMaxScaler("prime", lo, lo + rng.random(322) * 3.0)
    return build_model("prime", seed=3), scaler, rng.standard_normal((n, 322)) * 2.0


@pytest.mark.parametrize("n", [1, 257, 2000, SCORE_BLOCK_ROWS])
def test_score_matrix_bitwise_matches_forward(n):
    """Layer-streamed scoring gives forward's residuals and 1-norms bit for bit."""
    model, scaler, X = prime_rows(n, seed=n)
    Xs = scaler.transform(X)
    E_ref = Xs - forward(model, Xs)[0]
    scores, E = score_matrix(model, Xs)
    assert E.tobytes() == E_ref.tobytes()
    assert scores.tobytes() == np.sum(np.abs(E_ref), axis=1).tobytes()


def test_score_matrix_memory_is_bounded_by_two_layers():
    """Scoring never holds every layer's activations: the peak stays under 4x the residuals."""
    model, scaler, X = prime_rows(2000)
    tracemalloc.start()
    try:
        _, E = score_matrix(model, scaler.transform(X))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * E.nbytes, f"peak {peak / 1e6:.1f} MB for {E.nbytes / 1e6:.1f} MB residuals"


def test_score_matrix_scores_block_by_block():
    """Past SCORE_BLOCK_ROWS rows, each block scores bit for bit as it would alone, within
    1e-12 of one whole-matrix pass, and the residuals are written over the scaled rows."""
    n = 2 * SCORE_BLOCK_ROWS + 37
    model, scaler, X = prime_rows(n, seed=13)
    Xs = scaler.transform(X)
    E_ref = Xs - forward(model, Xs)[0]
    blocks = [Xs[lo:lo + SCORE_BLOCK_ROWS].copy() for lo in range(0, n, SCORE_BLOCK_ROWS)]
    scores, E = score_matrix(model, Xs)
    assert E is Xs
    for k, block in enumerate(blocks):
        rows = slice(k * SCORE_BLOCK_ROWS, (k + 1) * SCORE_BLOCK_ROWS)
        block_scores, block_E = score_matrix(model, block)
        assert E[rows].tobytes() == block_E.tobytes()
        assert scores[rows].tobytes() == block_scores.tobytes()
    npt.assert_allclose(E, E_ref, rtol=0, atol=1e-12)
    npt.assert_allclose(scores, np.sum(np.abs(E_ref), axis=1), rtol=1e-12, atol=0)


def test_score_matrix_memory_is_bounded_by_the_block():
    """Scoring 3 blocks' rows holds reconstruct's two block-sized buffers beside the scaled
    rows, not two copies of them: the peak stays under 2.5 blocks of residuals."""
    model, scaler, X = prime_rows(3 * SCORE_BLOCK_ROWS)
    Xs = scaler.transform(X)
    block_nbytes = SCORE_BLOCK_ROWS * Xs.shape[1] * Xs.itemsize
    tracemalloc.start()
    try:
        score_matrix(model, Xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block_nbytes, (f"peak {peak / 1e6:.1f} MB for "
                                       f"{block_nbytes / 1e6:.1f} MB blocks")


@pytest.mark.parametrize("n,p", [(1000, 99.9), (1000, 50.0), (4037, 99.9),
                                 (137, 97.5), (100, 99.0), (999, 99.99), (10, 0.1)])
def test_nearest_rank_matches_scan_oracle(n, p):
    assert nearest_rank(n, p) == nearest_rank_oracle(n, p)


def test_calibrate_examples():
    scores = np.arange(1.0, 1001.0)
    assert calibrate(scores, 99.9).value == 999.0
    assert calibrate(scores, 50.0).value == 500.0
    t = calibrate(scores, 99.9)
    assert t.calibration_size == 1000 and t.percentile == 99.9


def test_calibrate_constant_distribution_flags_nothing():
    scores = np.full(200, 5.0)
    threshold = calibrate(scores, 99.9)
    assert threshold.value == 5.0
    residuals = np.zeros((200, 322))
    assert flag(scores, residuals, np.arange(200.0), np.ones(200), threshold, "prime") == []


def test_calibrate_guards():
    with pytest.raises(DataError, match="100"):
        calibrate(np.arange(50.0), 99.9)
    with pytest.raises(DataError):
        calibrate(np.array([]), 50.0)
    with pytest.raises(DataError):
        calibrate(np.arange(200.0), 0.0)
    with pytest.raises(DataError):
        calibrate(np.arange(200.0), 100.0)
    # below-99 percentiles work on small samples
    assert calibrate(np.arange(10.0), 50.0).value == 4.0


def test_non_finite_scores_are_refused(tmp_path):
    scores = np.arange(200.0)
    scores[7] = np.nan
    with pytest.raises(DataError, match="calibration score 7 is nan"):
        calibrate(scores, 50.0)
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores, np.arange(200.0), np.ones(200))
    with pytest.raises(ArtifactError, match="scores.csv: row 7: bad value in field 'score'"):
        read_scores_csv(path)


def test_flag_strict_inequality():
    threshold = Threshold(percentile=99.9, value=2.0, calibration_size=1000)
    scores = np.array([2.0, 2.0000001])
    residuals = np.stack([np.zeros(322), np.ones(322) * 0.01])
    records = flag(scores, residuals, np.array([0.0, 1.0]), np.array([1, 1]), threshold, "prime")
    assert len(records) == 1 and records[0].start_t == 1.0


def test_flag_misalignment():
    threshold = Threshold(percentile=50.0, value=0.0, calibration_size=100)
    one = np.ones(1)
    with pytest.raises(DataError):
        flag(one, np.empty((0, 322)), one, one, threshold, "prime")
    with pytest.raises(DataError):
        flag(one, np.ones((1, 322)), np.ones(2), one, threshold, "prime")
    with pytest.raises(DataError):
        flag(one, np.ones((1, 301)), one, one, threshold, "prime")  # width of another variant


def flagged_contributors(e, a, variant):
    """The contributors flag names for one window of residuals e and score a."""
    records = flag(np.array([a]), np.asarray(e)[None, :], np.zeros(1), np.zeros(1, dtype=int),
                   Threshold(percentile=50.0, value=0.0, calibration_size=100), variant)
    assert len(records) == 1
    return records[0].contributors


def test_contributor_order_and_floor():
    names = feature_mask("prime").names()
    # all three above the 10% floor: sorted by |e| descending
    e = np.zeros(322)
    e[0], e[1], e[2] = 0.5, -0.9, 0.3
    picks = flagged_contributors(e, np.abs(e).sum(), "prime")
    assert [p[0] for p in picks] == [names[1], names[0], names[2]]
    assert [p[1] for p in picks] == [0.9, 0.5, 0.3]
    # third falls under 10% of a = 1.5 and is dropped
    e[2] = 0.1
    picks = flagged_contributors(e, np.abs(e).sum(), "prime")
    assert [p[0] for p in picks] == [names[1], names[0]]
    # the top contributor is always kept, floor notwithstanding
    tiny = np.zeros(322)
    tiny[5] = 1e-9
    picks = flagged_contributors(tiny, 1.0, "prime")
    assert [p[0] for p in picks] == [names[5]]


def test_contributor_magnitudes_bounded_by_score(rng):
    """Residuals concentrated in 1 to 3 features, each at least 10 % of the score: the
    reported magnitudes are those residuals' |e_i| exactly, and sum to about the score,
    so reporting any of them doubled would pass it."""
    names = feature_mask("refined").names()
    for _ in range(25):
        e = rng.standard_normal(301) * 1e-6
        k = rng.integers(1, 4)
        signs = rng.choice([-1.0, 1.0], k)
        e[rng.choice(301, k, replace=False)] = signs * rng.uniform(0.5, 2.0, k)
        a = np.abs(e).sum()
        picks = flagged_contributors(e, a, "refined")
        assert len(picks) == k
        assert all(m == abs(e[names.index(name)]) for name, m in picks)
        assert a - 1e-3 < sum(m for _, m in picks) <= a + 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=100, max_size=400),
       st.sampled_from([99.0, 99.5, 99.9]))
def test_self_flag_rate_bound(scores, p):
    threshold = calibrate(np.asarray(scores), p)
    flagged = sum(1 for s in scores if s > threshold.value)
    n = len(scores)
    assert flagged / n <= (100.0 - p) / 100.0 + 1.0 / n


def test_percentile_monotonicity(rng):
    scores = rng.random(500) * 10
    flags_by_p = []
    for p in (90.0, 95.0, 99.0, 99.9):
        t = calibrate(scores, p)
        flags_by_p.append({i for i, s in enumerate(scores) if s > t.value})
    for lower, higher in zip(flags_by_p, flags_by_p[1:]):
        assert higher.issubset(lower)


def test_threshold_json_roundtrip(tmp_path):
    t = Threshold(percentile=99.9, value=12.5, calibration_size=4037)
    path = tmp_path / "threshold.json"
    t.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"percentile", "value", "n"}
    assert Threshold.load(path) == t
    path.write_text("{broken")
    with pytest.raises(ArtifactError):
        Threshold.load(path)


def test_report_writers_roundtrip(tmp_path):
    names = feature_mask("refined").names()
    e = np.zeros(301)
    e[10], e[20] = 3.0, -2.0
    threshold = Threshold(percentile=99.9, value=4.0, calibration_size=500)
    records = flag(np.array([5.0]), e[None, :], np.array([42.0]), np.array([1001]),
                   threshold, "refined")
    assert len(records) == 1
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    write_report_csv(records, csv_path)
    write_report_json(records, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "sol,start_t,score,threshold,feature_1,e_1,feature_2,e_2,feature_3,e_3"
    assert lines[1].startswith(f"1001,42.0,5.0,4.0,{names[10]},3.0,{names[20]},2.0,")
    assert read_report_json(json_path) == records


@pytest.mark.parametrize("field,value", [
    ("start_t", float("nan")), ("score", float("inf")), ("threshold", float("-inf")),
    ("magnitude", float("nan")), ("sol", float("inf")),
])
def test_report_json_rejects_non_finite(tmp_path, field, value):
    """A non-finite number in report.json is refused, naming the record and the field."""
    good = {"sol": 1, "start_t": 0.0, "score": 9.0, "threshold": 1.0,
            "contributors": [{"feature": "std(accel[Z])", "magnitude": 5.0}]}
    bad = json.loads(json.dumps(good))
    (bad["contributors"][0] if field == "magnitude" else bad)[field] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps([good, bad]))
    match = f"report.json: record 1: bad value in field '{field}'"
    with pytest.raises(ArtifactError, match=match):
        read_report_json(path)


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=["fraction", "bool", "text"])
def test_integer_fields_refuse_non_integers(tmp_path, value):
    """report.json sol and threshold.json n are whole numbers; int() would truncate 1.5
    and read true as 1."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps([{"sol": value, "start_t": 0.0, "score": 9.0,
                                   "threshold": 1.0, "contributors": []}]))
    with pytest.raises(ArtifactError, match="report.json: record 0: bad value in field 'sol'"):
        read_report_json(report)
    threshold = tmp_path / "threshold.json"
    threshold.write_text(json.dumps({"percentile": 99.9, "value": 1.0, "n": value}))
    with pytest.raises(ArtifactError, match="threshold.json: bad value in field 'n'"):
        Threshold.load(threshold)
    # a whole number written as a float is still an integer
    threshold.write_text(json.dumps({"percentile": 99.9, "value": 1.0, "n": 117.0}))
    assert Threshold.load(threshold).calibration_size == 117


@pytest.mark.parametrize("value", [True, "1.0"], ids=["bool", "text"])
def test_float_fields_refuse_bool_and_text(tmp_path, value):
    """float() would read true as 1.0 and "1.0" as 1.0; a JSON float field takes only numbers."""
    threshold = tmp_path / "threshold.json"
    for field in ("percentile", "value"):
        threshold.write_text(json.dumps({"percentile": 99.9, "value": 1.0, "n": 117,
                                         field: value}))
        with pytest.raises(ArtifactError, match=f"threshold.json: bad value in field '{field}'"):
            Threshold.load(threshold)
    report = tmp_path / "report.json"
    report.write_text(json.dumps([{"sol": 1, "start_t": value, "score": 9.0,
                                   "threshold": 1.0, "contributors": []}]))
    with pytest.raises(ArtifactError, match="report.json: record 0: bad value in field 'start_t'"):
        read_report_json(report)
    # an integer is a JSON number too
    threshold.write_text(json.dumps({"percentile": 99, "value": 2, "n": 117}))
    assert Threshold.load(threshold) == Threshold(percentile=99.0, value=2.0,
                                                  calibration_size=117)


def test_scores_csv_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    scores = np.array([1.5, 2.5, 0.25])
    start_t = np.array([0.0, 1.0, 2.0])
    sol = np.array([7, 7, 8])
    write_scores_csv(path, scores, start_t, sol)
    back_scores, back_t, back_sol = read_scores_csv(path)
    assert np.array_equal(back_scores, scores)
    assert np.array_equal(back_t, start_t)
    assert np.array_equal(back_sol, sol)


@pytest.mark.parametrize("body,message", [
    ("sol,start_t,score\n1_0,1_0.5,2\n", "unparsable cell at row 0"),
    ("sol,start_t,score\n1,0.0,0.1\n1,1.0,0.2,9\n", "row 1 has 4 cells, expected 3"),
    ("sol,start_t,score\n1,0.0,0.1\n\n1,1.0,0.2\n", "row 1 has 0 cells"),
    ("sol,start_t,score\n", "empty table"),
    ("sol,score,start_t\n1,0.0,0.1\n", "columns out of order"),
    ("sol,start_t,score\n1.5,0.0,0.1\n", "row 0: bad value in field 'sol'"),
    (f"sol,start_t,score\n{2**53 + 1},0.0,0.1\n", "row 0: bad value in field 'sol'"),
    ("sol,start_t,score\n1,0.0,0.1\n1,nan,0.2\n", "row 1: bad value in field 'start_t'"),
], ids=["underscore", "long-row", "blank-line", "header-only", "header-order",
        "fractional-sol", "sol-beyond-2^53", "start-nan"])
def test_scores_csv_follows_the_telemetry_grammar(tmp_path, body, message):
    """Score tables are read by the telemetry table reader, so its grammar holds, and
    every fault is an ArtifactError naming the file and the 0-based data row."""
    path = tmp_path / "scores.csv"
    path.write_text(body)
    with pytest.raises(ArtifactError, match=f"scores.csv: .*{re.escape(message)}"):
        read_scores_csv(path)


def test_flag_contributors_match_each_row_alone():
    """flag's one pass over every flagged row picks what top_contributors picks row by
    row: ties go to the lower feature index, and a second or third contributor under
    10 % of the score is dropped, the top one never."""
    rng = np.random.default_rng(21)
    d = 322
    E = rng.normal(0.0, 0.01, size=(40, d))
    E[0, [5, 9, 200]] = [3.0, -3.0, 3.0]  # a three-way tie, one of them negative
    E[1, [7, 8]] = [-2.0, 2.0]  # a tie for the top contributor
    E[2, 11] = 40.0  # second and third far under the floor
    E[3:7] = 0.0
    E[3, [11, 12, 13]] = [8.0, 1.0, 1.0]  # second and third exactly at the floor: kept
    E[4, [11, 12, 13]] = [9.0, 0.99, 0.01]  # second just under the floor
    E[5, 300] = 1.0  # every other magnitude tied at zero
    E[6, :] = 0.5  # every feature tied
    scores = np.abs(E).sum(axis=1)
    scores[7:20] = 0.0  # below the threshold: not flagged
    t, sol = np.arange(40) * 1.0, np.full(40, 1000)
    threshold = Threshold(99.0, 1e-9, 100)
    records = flag(scores, E, t, sol, threshold, "prime")
    names = feature_mask("prime").names()
    expected = [top_contributors(E[i], float(scores[i]), names)
                for i in np.flatnonzero(scores > threshold.value)]
    assert [r.contributors for r in records] == expected
    assert [len(c) for c in expected[:7]] == [3, 2, 1, 3, 1, 1, 1]
    assert [c[0][0] for c in expected[:7]] == [names[i] for i in (5, 7, 11, 11, 11, 300, 0)]
    assert [(r.sol, r.start_t, r.score) for r in records] == [
        (1000, float(i), float(scores[i])) for i in np.flatnonzero(scores > 1e-9)]
    assert all(type(r.sol) is int and type(r.start_t) is float for r in records)
    assert flag(scores, E, t, sol, Threshold(99.0, 1e9, 100), "prime") == []


@pytest.mark.parametrize("n_records", [0, 1, 2, 3])
def test_report_json_is_json_dumps_with_indent(tmp_path, n_records):
    """write_report_json writes the bytes of json.dumps(doc, indent=2) plus a newline,
    with 1 to 3 contributors per record and floats at the edges of repr."""
    records = [
        FlagRecord(sol=1000, start_t=-0.0, score=5e-324, threshold=1e16,
                   contributors=(("kurt(PD[LF])", 1e16),)),
        FlagRecord(sol=2**53 - 1, start_t=0.125, score=11.597712345678901, threshold=-0.0,
                   contributors=(("mean(C[RR])", 5e-324), ("std(accel[Z])", -0.0))),
        FlagRecord(sol=-3, start_t=1e16, score=1e-7, threshold=2.5,
                   contributors=(("a", 0.1), ("bé\"", 0.2), ("c", 1e22))),
    ][:n_records]
    path = tmp_path / "report.json"
    write_report_json(records, path)
    doc = [{"sol": r.sol, "start_t": r.start_t, "score": r.score, "threshold": r.threshold,
            "contributors": [{"feature": n, "magnitude": m} for n, m in r.contributors]}
           for r in records]
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    assert read_report_json(path) == records


@pytest.mark.parametrize("n", [0, 1, 3])
def test_scores_csv_is_the_row_loop(tmp_path, n):
    """write_scores_csv writes the bytes of formatting each numpy scalar row by row."""
    scores = np.array([5e-324, 1e16, -0.0, 11.597712345678901])[:n]
    start_t = np.array([0.0, 0.125, 1e16, 3.0])[:n]
    sol = np.array([1000, -1, 2**53 - 1, 7], dtype=np.int64)[:n]
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores, start_t, sol)
    rows = "".join(f"{int(sol[i])},{repr(float(start_t[i]))},{repr(float(scores[i]))}\n"
                   for i in range(n))
    assert path.read_text() == "sol,start_t,score\n" + rows


@pytest.mark.parametrize("n", [1, SCORES_CHUNK_ROWS - 1, SCORES_CHUNK_ROWS,
                               SCORES_CHUNK_ROWS + 1])
def test_scores_csv_chunks_give_the_whole_list_bytes(tmp_path, n):
    """Rows formatted a chunk at a time are the bytes of one pass over whole-drive lists."""
    rng = np.random.default_rng(n)
    scores, start_t = rng.random(n) * 10.0 ** rng.integers(-300, 300, n), rng.random(n)
    sol = rng.integers(-2**53 + 1, 2**53, n)
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores, start_t, sol)
    rows = "".join(f"{s},{t!r},{a!r}\n"
                   for s, t, a in zip(sol.tolist(), start_t.tolist(), scores.tolist()))
    assert path.read_text() == "sol,start_t,score\n" + rows


def test_scores_csv_refuses_misaligned_columns(tmp_path):
    with pytest.raises(DataError, match="misaligned"):
        write_scores_csv(tmp_path / "scores.csv", np.zeros(3), np.zeros(3), np.zeros(2))
