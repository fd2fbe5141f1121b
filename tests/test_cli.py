import base64
import hashlib
import json
import shutil

import numpy as np
import pytest

from drivemon.cli import main
from drivemon.detect import Threshold, read_scores_csv
from drivemon.features import MinMaxScaler, fit_scaler
from drivemon.net import load_model, new_model, save_model
from drivemon.telemetry import CSV_HEADER, read_stream

from conftest import store_params


def run(*args):
    return main([str(a) for a in args])


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_pipeline_json(art):
    """The pipeline.json that train writes for 4 s windows at a 1 s stride."""
    (art / "pipeline.json").write_text(
        '{"variant": "prime", "window_s": 4.0, "stride_s": 1.0, "seed": 0}\n')


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small but calibration-sized dataset shared by the CLI tests."""
    out = tmp_path_factory.mktemp("data")
    code = run("generate", "--out", out, "--seed", 11,
               "--train-s", 120, "--test-s", 80, "--events", "mixed3")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    art = tmp_path_factory.mktemp("artifacts")
    assert run("train", "--data", data_dir / "train.csv", "--artifacts", art,
               "--variant", "prime", "--seed", 3, "--epochs", 3) == 0
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 0
    return art


def test_generate_writes_three_files(data_dir):
    assert (data_dir / "train.csv").exists()
    assert (data_dir / "test.csv").exists()
    labels = json.loads((data_dir / "labels.json").read_text())
    assert len(labels) == 3


def test_generate_deterministic(tmp_path, data_dir):
    again = tmp_path / "again"
    assert run("generate", "--out", again, "--seed", 11,
               "--train-s", 120, "--test-s", 80, "--events", "mixed3") == 0
    for name in ("train.csv", "test.csv", "labels.json"):
        assert (again / name).read_bytes() == (data_dir / name).read_bytes()


def test_generate_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("generate", "--out", tmp_path, "--train-s", 2)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("generate", "--out", tmp_path, "--test-s", 100, "--events", "mixed90")
    assert exc.value.code == 2
    # numpy refuses a negative seed with a traceback; the CLI refuses it first
    with pytest.raises(SystemExit) as exc:
        run("generate", "--out", tmp_path / "out", "--seed", -1)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sol", [2**53 - 1, 2**53, -2**53, 2**63 - 1, 2**63, -2**63 - 1])
def test_generate_sol_out_of_int64_range_exits_2(tmp_path, capsys, sol):
    """The test drive's sol is --sol + 1, and both must be below 2^53 in magnitude, so
    that they read back exactly from the CSV; int64 overflow is refused with them."""
    with pytest.raises(SystemExit) as exc:
        run("generate", "--out", tmp_path / "out", "--train-s", 8, "--test-s", 8,
            "--events", "none", "--sol", sol)
    assert exc.value.code == 2
    assert "--sol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_largest_sol(tmp_path):
    """The largest and smallest --sol each read back exactly, test drive's sol included."""
    for sol in (2**53 - 2, 1 - 2**53):
        assert run("generate", "--out", tmp_path, "--train-s", 8, "--test-s", 8,
                   "--events", "none", "--sol", sol) == 0
        assert (tmp_path / "test.csv").read_text().splitlines()[1].split(",")[1] == str(sol + 1)
        assert int(read_stream(tmp_path / "train.csv").sol[0]) == sol
        assert int(read_stream(tmp_path / "test.csv").sol[-1]) == sol + 1


@pytest.mark.parametrize("flag,value", [
    ("--train-s", "nan"), ("--train-s", "inf"), ("--test-s", "nan"), ("--test-s", "inf"),
    ("--severity", "nan"), ("--severity", "inf"),
])
def test_generate_non_finite_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    """A NaN or infinite length or severity exits 2 before anything is generated."""
    with pytest.raises(SystemExit) as exc:
        run("generate", "--out", tmp_path / "out", flag, value)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_artifacts(data_dir, trained_dir):
    model = load_model(trained_dir / "model.json")
    assert model.dims == (322, 322, 182, 143, 143, 182, 322)
    scaler = MinMaxScaler.load(trained_dir / "scaler.json")
    assert scaler.variant == "prime" and len(scaler) == 322
    losses = (trained_dir / "losses.csv").read_text().splitlines()
    assert losses[0] == "epoch,train_loss,val_loss"
    assert len(losses) == 1 + 3
    pipeline = json.loads((trained_dir / "pipeline.json").read_text())
    assert pipeline == {"variant": "prime", "window_s": 4.0, "stride_s": 1.0, "seed": 3,
                        "calibration": {
                            "data_sha256": sha256_of(data_dir / "train.csv"),
                            "stride_s": 1.0,
                            "params_sha256": sha256_of(trained_dir / "model.params"),
                            "scaler_sha256": sha256_of(trained_dir / "scaler.json"),
                            "scores_sha256": sha256_of(trained_dir / "calibration_scores.csv"),
                            "threshold_sha256": sha256_of(trained_dir / "threshold.json"),
                        }}


def test_train_refined_scaler_width(tmp_path, data_dir):
    art = tmp_path / "art"
    assert run("train", "--data", data_dir / "train.csv", "--artifacts", art,
               "--variant", "refined", "--seed", 3, "--epochs", 1) == 0
    assert len(MinMaxScaler.load(art / "scaler.json")) == 301


def test_train_rerun_byte_identical(tmp_path, data_dir, trained_dir):
    art = tmp_path / "art"
    assert run("train", "--data", data_dir / "train.csv", "--artifacts", art,
               "--variant", "prime", "--seed", 3, "--epochs", 3) == 0
    # trained_dir was calibrated too, and calibrate rewrites pipeline.json's record
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 0
    for name in ("model.json", "model.params", "scaler.json", "losses.csv", "pipeline.json"):
        assert (art / name).read_bytes() == (trained_dir / name).read_bytes()


def test_retrain_drops_the_old_threshold(tmp_path, data_dir, capsys):
    """A threshold calibrated for one model does not hold for the next: train removes it,
    and detect exits 4 naming threshold.json until calibrate runs again."""
    art = tmp_path / "art"
    train = ("train", "--data", data_dir / "train.csv", "--artifacts", art, "--epochs")
    calibrate = ("calibrate", "--data", data_dir / "train.csv", "--artifacts", art)
    detect = ("detect", "--data", data_dir / "test.csv", "--artifacts", art)
    assert run(*train, 2, "--seed", 1) == 0 and run(*calibrate) == 0
    assert run(*train, 3, "--seed", 9) == 0
    assert not (art / "threshold.json").exists()
    capsys.readouterr()
    assert run(*detect) == 4
    assert "threshold.json" in capsys.readouterr().err
    assert not (art / "report.json").exists()
    assert run(*calibrate) == 0 and run(*detect) == 0


def test_retrain_drops_the_last_detect_run(tmp_path, data_dir, capsys):
    """The last detect run's report, scores and metrics belong to the model that made them:
    train removes them, and evaluate then exits 3 naming the missing report.json."""
    art = tmp_path / "art"
    train = ("train", "--data", data_dir / "train.csv", "--artifacts", art, "--epochs")
    evaluate = ("evaluate", "--artifacts", art, "--labels", data_dir / "labels.json")
    assert run(*train, 2, "--seed", 1) == 0
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 0
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 0
    assert run(*evaluate) == 0
    assert run(*train, 3, "--seed", 9) == 0
    for name in ("report.json", "report.csv", "scores.csv", "metrics.json"):
        assert not (art / name).exists(), name
    capsys.readouterr()
    assert run(*evaluate) == 3
    err = capsys.readouterr().err
    assert "missing evaluation input" in err and "report.json" in err


def test_train_missing_data_exits_3(tmp_path):
    assert run("train", "--data", tmp_path / "nope.csv",
               "--artifacts", tmp_path / "a") == 3


def test_calibrate_artifacts(trained_dir):
    threshold = Threshold.load(trained_dir / "threshold.json")
    assert threshold.percentile == 99.9
    assert threshold.calibration_size == 117  # 960 frames at 32/8 windowing
    scores, _, _ = read_scores_csv(trained_dir / "calibration_scores.csv")
    assert len(scores) == 117


def test_calibrate_lower_percentile_lower_value(tmp_path, data_dir, trained_dir):
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "scaler.json", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art,
               "--percentile", 99) == 0
    t99 = Threshold.load(art / "threshold.json")
    t999 = Threshold.load(trained_dir / "threshold.json")
    assert t99.value <= t999.value
    assert t99.percentile == 99.0


def test_calibrate_too_few_windows(tmp_path, trained_dir):
    short = tmp_path / "short"
    assert run("generate", "--out", short, "--seed", 1, "--train-s", 40,
               "--test-s", 40, "--events", "none") == 0
    # 40 s gives 37 windows, far below the 100 needed at p99.9
    assert run("calibrate", "--data", short / "train.csv",
               "--artifacts", trained_dir) == 3


def test_calibrate_names_the_model_it_vouches_for(tmp_path, data_dir, trained_dir):
    """After a refined seed-2 model and its scaler replace a prime one, calibrate exits 0
    and pipeline.json names the model its calibration record vouches for."""
    refined = tmp_path / "refined"
    assert run("train", "--data", data_dir / "train.csv", "--artifacts", refined,
               "--variant", "refined", "--seed", 2, "--epochs", 1) == 0
    art = tmp_path / "art"
    shutil.copytree(trained_dir, art)
    for name in ("model.json", "model.params", "scaler.json"):
        (art / name).write_bytes((refined / name).read_bytes())
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 0
    doc = json.loads((art / "pipeline.json").read_text())
    assert (doc["variant"], doc["seed"]) == ("refined", 2)
    assert doc["calibration"]["params_sha256"] == sha256_of(art / "model.params")


def test_detect_reports(tmp_path, data_dir, trained_dir):
    assert run("detect", "--data", data_dir / "test.csv",
               "--artifacts", trained_dir) == 0
    report = json.loads((trained_dir / "report.json").read_text())
    scores, start_t, sol = read_scores_csv(trained_dir / "scores.csv")
    assert len(scores) == 77  # 80 s of test data
    csv_head = (trained_dir / "report.csv").read_text().splitlines()[0]
    assert csv_head == "sol,start_t,score,threshold,feature_1,e_1,feature_2,e_2,feature_3,e_3"
    for rec in report:
        assert rec["score"] > rec["threshold"]
        assert 1 <= len(rec["contributors"]) <= 3


def test_detect_percentile_override_no_retrain(tmp_path, data_dir, trained_dir):
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "scaler.json", "threshold.json",
                 "calibration_scores.csv", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 0
    base_flags = len(json.loads((art / "report.json").read_text()))
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art,
               "--percentile", 50) == 0
    more_flags = len(json.loads((art / "report.json").read_text()))
    assert more_flags >= base_flags
    assert more_flags > 0  # p50 of self-scores must flag plenty
    # stored threshold artifact is untouched by the override
    assert Threshold.load(art / "threshold.json").percentile == 99.9


def test_detect_non_finite_calibration_scores_exits_4(tmp_path, data_dir, trained_dir, capsys):
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "scaler.json", "threshold.json", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    lines = (trained_dir / "calibration_scores.csv").read_text().splitlines()
    # every score from data row 4 on is nan; line 0 is the header
    lines[5:] = [line.rsplit(",", 1)[0] + ",nan" for line in lines[5:]]
    (art / "calibration_scores.csv").write_text("\n".join(lines) + "\n")
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art,
               "--percentile", 50) == 4
    err = capsys.readouterr().err
    assert "calibration_scores.csv: row 4: bad value in field 'score'" in err
    assert not (art / "report.json").exists()


def _swap_model(art, other_seed_dir):
    # the scaler depends on the data alone, so only the model differs
    assert (art / "scaler.json").read_bytes() == (other_seed_dir / "scaler.json").read_bytes()
    for name in ("model.json", "model.params"):
        (art / name).write_bytes((other_seed_dir / name).read_bytes())


def _double_scores(art, other_seed_dir):
    path = art / "calibration_scores.csv"
    header, *rows = path.read_text().splitlines()
    rows = [f"{head},{2.0 * float(score)!r}" for head, score in (r.rsplit(",", 1) for r in rows)]
    path.write_text("\n".join([header, *rows]) + "\n")


def _drop_record(art, other_seed_dir):
    doc = json.loads((art / "pipeline.json").read_text())
    del doc["calibration"]
    (art / "pipeline.json").write_text(json.dumps(doc) + "\n")


def _drop_scores(art, other_seed_dir):
    (art / "calibration_scores.csv").unlink()


@pytest.mark.parametrize("change,field", [
    (_swap_model, "params_sha256"), (_double_scores, "scores_sha256"),
    (_drop_record, "calibration"), (_drop_scores, "scores_sha256"),
], ids=["swapped-model", "doubled-scores", "no-record", "missing-scores"])
def test_detect_percentile_needs_vouched_scores(tmp_path, data_dir, trained_dir, other_seed_dir,
                                                capsys, change, field):
    """detect --percentile re-thresholds only from the calibration scores that pipeline.json's
    calibration record vouches for under the model and scaler in the directory; otherwise
    it exits 4 naming both files, and writes no report."""
    art = tmp_path / "art"
    shutil.copytree(trained_dir, art, ignore=shutil.ignore_patterns("report.*", "scores.csv"))
    change(art, other_seed_dir)
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art,
               "--percentile", 50) == 4
    err = capsys.readouterr().err
    assert "calibration_scores.csv" in err and "pipeline.json" in err and field in err
    assert "rerun calibrate" in err and "Traceback" not in err
    assert not (art / "report.json").exists()


def _edit_threshold(art, other_seed_dir):
    path = art / "threshold.json"
    doc = json.loads(path.read_text())
    doc["value"] *= 0.5  # a valid file that flags more windows
    path.write_text(json.dumps(doc) + "\n")


@pytest.mark.parametrize("percentile", [None, 99.9], ids=["default", "stored-percentile"])
@pytest.mark.parametrize("change,field", [
    (_swap_model, "params_sha256"), (_edit_threshold, "threshold_sha256"),
    (_drop_record, "calibration"),
], ids=["swapped-model", "edited-threshold", "no-record"])
def test_detect_needs_a_vouched_threshold(tmp_path, data_dir, trained_dir, other_seed_dir,
                                          capsys, change, field, percentile):
    """detect thresholds from threshold.json only when pipeline.json's calibration record
    vouches for it under the model and scaler in the directory; otherwise it exits 4
    naming both files and writes no report, until calibrate runs again."""
    art = tmp_path / "art"
    shutil.copytree(trained_dir, art, ignore=shutil.ignore_patterns("report.*", "scores.csv"))
    change(art, other_seed_dir)
    detect = ["detect", "--data", data_dir / "test.csv", "--artifacts", art]
    if percentile is not None:
        detect += ["--percentile", percentile]
    assert run(*detect) == 4
    err = capsys.readouterr().err
    assert "threshold.json" in err and "pipeline.json" in err and field in err
    assert "rerun calibrate" in err and "Traceback" not in err
    assert not (art / "report.json").exists()
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 0
    assert run(*detect) == 0


def test_detect_variant_mismatch_exits_4(tmp_path, data_dir, trained_dir):
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "threshold.json", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    rng = np.random.default_rng(0)
    fit_scaler(rng.random((5, 301)), variant="refined").save(art / "scaler.json")
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 4


def test_detect_perfect_stub_model_zero_flags(tmp_path, data_dir):
    art = tmp_path / "art"
    art.mkdir()
    stub = new_model((322, 322), ("linear",), seed=0, variant="prime")
    stub.weights[0][...] = np.eye(322)
    save_model(stub, art / "model.json")
    # scaler fitted on the test features themselves; reconstruction is exact
    from drivemon import derive_stream, feature_mask, feature_matrix, WindowSpec
    from drivemon.telemetry import read_stream
    X, _, _ = feature_matrix(derive_stream(read_stream(data_dir / "test.csv")),
                             WindowSpec(), feature_mask("prime"))
    fit_scaler(X, variant="prime").save(art / "scaler.json")
    write_pipeline_json(art)
    # calibrate writes the threshold and the record that vouches for it
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 0
    assert Threshold.load(art / "threshold.json").value == 0.0
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 0
    assert json.loads((art / "report.json").read_text()) == []


def test_evaluate_metrics(tmp_path, data_dir, trained_dir):
    assert run("detect", "--data", data_dir / "test.csv",
               "--artifacts", trained_dir) == 0
    assert run("evaluate", "--artifacts", trained_dir,
               "--labels", data_dir / "labels.json") == 0
    metrics = json.loads((trained_dir / "metrics.json").read_text())
    assert metrics["events_total"] == 3
    assert metrics["windows_total"] == 77
    assert set(metrics["recall"]) == {"RockDrop", "Wheelie", "MTSC",
                                      "HighSlip", "IntenseTerrain"}
    assert metrics["flags_total"] == metrics["flags_true_positive"] + \
        metrics["flags_false_positive"]


def test_evaluate_empty_cases(tmp_path):
    art = tmp_path / "art"
    art.mkdir()
    (art / "report.json").write_text("[]\n")
    (art / "scores.csv").write_text(
        "sol,start_t,score\n" + "\n".join(f"1,{i}.0,0.1" for i in range(10)) + "\n")
    write_pipeline_json(art)
    labels = tmp_path / "labels.json"
    labels.write_text("[]\n")
    assert run("evaluate", "--artifacts", art, "--labels", labels) == 0
    metrics = json.loads((art / "metrics.json").read_text())
    assert metrics["false_positive_rate"] == 0.0
    assert metrics["overall_recall"] is None
    assert all(v is None for v in metrics["recall"].values())


def test_evaluate_flag_outside_events_counts_fp(tmp_path):
    art = tmp_path / "art"
    art.mkdir()
    (art / "report.json").write_text(json.dumps([
        {"sol": 1, "start_t": 50.0, "score": 9.0, "threshold": 1.0,
         "contributors": [{"feature": "std(accel[Z])", "magnitude": 5.0}]},
        {"sol": 1, "start_t": 2.0, "score": 8.0, "threshold": 1.0,
         "contributors": [{"feature": "max(C[LF])", "magnitude": 4.0}]},
    ]))
    (art / "scores.csv").write_text(
        "sol,start_t,score\n" + "\n".join(f"1,{i}.0,0.1" for i in range(60)) + "\n")
    write_pipeline_json(art)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([
        {"kind": "MTSC", "t0": 1.0, "duration": 1.5, "wheel": "LF", "severity": 1.0}
    ]))
    assert run("evaluate", "--artifacts", art, "--labels", labels) == 0
    metrics = json.loads((art / "metrics.json").read_text())
    assert metrics["flags_true_positive"] == 1
    assert metrics["flags_false_positive"] == 1
    assert metrics["recall"]["MTSC"] == 1.0
    assert metrics["overall_recall"] == 1.0


@pytest.mark.parametrize("field,value", [
    ("t0", float("nan")), ("t0", float("inf")), ("duration", float("nan")),
    ("duration", float("inf")), ("severity", float("nan")), ("severity", float("-inf")),
])
def test_evaluate_non_finite_label_exits_3(tmp_path, capsys, field, value):
    """A NaN or infinite event time, duration or severity is refused, not scored."""
    art = tmp_path / "art"
    art.mkdir()
    (art / "report.json").write_text("[]\n")
    (art / "scores.csv").write_text("sol,start_t,score\n1,0.0,0.1\n")
    event = {"kind": "MTSC", "t0": 1.0, "duration": 1.5, "wheel": "LF", "severity": 1.0}
    event[field] = value
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([event]))  # json writes NaN and Infinity
    assert run("evaluate", "--artifacts", art, "--labels", labels) == 3
    err = capsys.readouterr().err
    assert "labels.json: event 0" in err and f"'{field}'" in err and "Traceback" not in err
    assert not (art / "metrics.json").exists()


def test_evaluate_missing_inputs(tmp_path):
    assert run("evaluate", "--artifacts", tmp_path,
               "--labels", tmp_path / "labels.json") == 3


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train_s=120\ntest_s=80\nevents=none\nseed=5\n")
    out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    assert run("generate", "--config", cfg, "--out", out1) == 0
    assert len(json.loads((out1 / "labels.json").read_text())) == 0
    assert run("generate", f"--config={cfg}", "--out", out3) == 0
    assert (out3 / "test.csv").read_bytes() == (out1 / "test.csv").read_bytes()
    # explicit flag overrides the config value
    assert run("generate", "--config", cfg, "--out", out2, "--events", "mixed2") == 0
    assert len(json.loads((out2 / "labels.json").read_text())) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run("generate", "--out", tmp_path, "--config", tmp_path / "nope.cfg") == 2


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    """A config file that is not UTF-8 is a usage error naming the file, not a traceback."""
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=\xff\xfe\n")
    assert run("generate", "--out", tmp_path / "out", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and str(cfg) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_corrupt_model_artifact_exits_4(tmp_path, data_dir):
    art = tmp_path / "art"
    art.mkdir()
    (art / "model.json").write_text("{broken")
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 4


def test_detect_nan_weight_exits_4(tmp_path, data_dir, trained_dir, capsys):
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "scaler.json", "threshold.json", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    dims = json.loads((art / "model.json").read_text())["dims"]
    params = np.fromfile(art / "model.params", dtype="<f8")
    # W_0, b_0, W_1, b_1, then W_2[0, 0]
    params[dims[1] * dims[0] + dims[1] + dims[2] * dims[1] + dims[2]] = np.nan
    store_params(art / "model.json", params)  # a matching hash: the finite check must fire
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 4
    err = capsys.readouterr().err
    assert "model.json: layer 2" in err and "model.params" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def other_seed_dir(tmp_path_factory, data_dir):
    """The trained_dir model retrained from another seed."""
    art = tmp_path_factory.mktemp("other-seed")
    assert run("train", "--data", data_dir / "train.csv", "--artifacts", art,
               "--variant", "prime", "--seed", 4, "--epochs", 3) == 0
    return art


@pytest.mark.parametrize("damage", ["missing", "truncated", "flipped-byte", "other-seed",
                                    "base64-format"])
def test_detect_bad_model_params_exits_4(tmp_path, data_dir, trained_dir, other_seed_dir,
                                         capsys, damage):
    """A model.params that is missing, damaged or from another model, and a model.json of
    the older format with base64 params inside it, exit 4 naming both files."""
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "scaler.json", "threshold.json", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    params = art / "model.params"
    raw = params.read_bytes()
    if damage == "missing":
        params.unlink()
    elif damage == "truncated":
        params.write_bytes(raw[:len(raw) // 2])
    elif damage == "flipped-byte":
        params.write_bytes(raw[:100] + bytes([raw[100] ^ 0x01]) + raw[101:])
    elif damage == "other-seed":
        params.write_bytes((other_seed_dir / "model.params").read_bytes())
    else:
        doc = json.loads((art / "model.json").read_text())
        del doc["params_sha256"]
        doc["params"] = base64.b64encode(raw).decode("ascii")
        (art / "model.json").write_text(json.dumps(doc))
        params.unlink()
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 4
    err = capsys.readouterr().err
    assert "model.params" in err and "model.json" in err and "Traceback" not in err
    assert not (art / "report.json").exists()


def test_detect_unknown_activation_exits_4(tmp_path, data_dir, trained_dir, capsys):
    art = tmp_path / "art"
    art.mkdir()
    for name in ("model.json", "model.params", "scaler.json", "threshold.json", "pipeline.json"):
        (art / name).write_bytes((trained_dir / name).read_bytes())
    doc = json.loads((art / "model.json").read_text())
    doc["activations"][1] = "relu"
    (art / "model.json").write_text(json.dumps(doc))
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 4
    err = capsys.readouterr().err
    assert "model.json" in err and "'relu'" in err


def _report_with(field, value):
    """A one-flag report.json whose `field` holds `value`; json writes NaN and Infinity."""
    record = {"sol": 1, "start_t": 0.0, "score": 9.0, "threshold": 1.0,
              "contributors": [{"feature": "std(accel[Z])", "magnitude": 5.0}]}
    (record["contributors"][0] if field == "magnitude" else record)[field] = value
    return json.dumps([record])


@pytest.mark.parametrize("command,name,content,code", [
    ("evaluate", "report.json", '[{"sol": 1}]', 4),
    ("evaluate", "scores.csv", "sol,start_t,score\n1,x\n", 4),
    ("evaluate", "labels.json", '[{"kind": "MTSC"}]', 3),
    ("detect", "scaler.json", '{"variant": "prime", "min": ["x"], "max": [1.0]}', 4),
    ("detect", "threshold.json", '{"percentile": 99.9, "value": NaN, "n": 117}', 4),
    ("detect", "threshold.json", '{"percentile": 150, "value": 1.0, "n": 117}', 4),
    ("detect", "threshold.json", '{"percentile": 0, "value": 1.0, "n": 117}', 4),
    ("detect", "threshold.json", '{"percentile": 99.9, "value": 1.0, "n": 0}', 4),
    ("evaluate", "scores.csv", "sol,start_t,score\n1,0.0,0.1\n1,1.0,nan\n", 4),
    ("evaluate", "scores.csv", "sol,start_t,score\n1,inf,0.1\n", 4),
    ("evaluate", "report.json", _report_with("start_t", float("nan")), 4),
    ("evaluate", "report.json", _report_with("score", float("inf")), 4),
    ("evaluate", "report.json", _report_with("threshold", float("-inf")), 4),
    ("evaluate", "report.json", _report_with("magnitude", float("nan")), 4),
    ("evaluate", "report.json", _report_with("sol", float("inf")), 4),
    ("evaluate", "report.json", _report_with("sol", 1.5), 4),
    ("evaluate", "report.json", _report_with("sol", True), 4),
    ("detect", "threshold.json", '{"percentile": 99.9, "value": 1.0, "n": 1.5}', 4),
    ("detect", "threshold.json", '{"percentile": 99.9, "value": 1.0, "n": true}', 4),
    ("detect", "model.json", lambda doc: doc.replace('"dims": [322,', '"dims": [322.5,'), 4),
    ("detect", "model.json", lambda doc: doc.replace('"dims": [322,', '"dims": [true,'), 4),
    ("detect", "threshold.json", '{"percentile": true, "value": 1.0, "n": 117}', 4),
    ("detect", "threshold.json", '{"percentile": 99.9, "value": "1.0", "n": 117}', 4),
    ("detect", "scaler.json", lambda doc: doc.replace('"min": [', '"min": [true, '), 4),
    ("detect", "scaler.json", lambda doc: doc.replace('"max": [', '"max": ["0.5", '), 4),
    ("evaluate", "report.json", _report_with("start_t", True), 4),
    ("evaluate", "report.json", _report_with("magnitude", "5.0"), 4),
    ("evaluate", "labels.json", json.dumps([{"kind": "RockDrop", "t0": True, "duration": 3.0}]), 3),
    ("evaluate", "labels.json", json.dumps([{"kind": "RockDrop", "t0": 1.0, "duration": "3"}]), 3),
    ("detect", "model.json", None, 4),
    ("detect", "scaler.json", None, 4),
    ("detect", "threshold.json", None, 4),
], ids=["report-field", "scores-cell", "labels-field", "scaler-min", "threshold-nan",
        "threshold-percentile-150", "threshold-percentile-0", "threshold-n-0",
        "scores-nan", "scores-start-inf", "report-start-nan", "report-score-inf",
        "report-threshold-minus-inf", "report-magnitude-nan", "report-sol-inf",
        "report-sol-fraction", "report-sol-bool", "threshold-n-fraction", "threshold-n-bool",
        "model-dims-fraction", "model-dims-bool", "threshold-percentile-bool",
        "threshold-value-text", "scaler-min-bool", "scaler-max-text", "report-start-bool",
        "report-magnitude-text", "labels-t0-bool", "labels-duration-text",
        "model-missing", "scaler-missing", "threshold-missing"])
def test_malformed_input_exit_code(tmp_path, data_dir, trained_dir, capsys,
                                   command, name, content, code):
    """A damaged or missing file ends with its exit code and a message naming it."""
    art = tmp_path / "art"
    art.mkdir()
    for kept in ("model.json", "model.params", "scaler.json", "threshold.json", "pipeline.json"):
        (art / kept).write_bytes((trained_dir / kept).read_bytes())
    (art / "report.json").write_text("[]\n")
    (art / "scores.csv").write_text("sol,start_t,score\n1,0.0,0.1\n")
    (art / "labels.json").write_text("[]\n")
    if content is None:
        (art / name).unlink()
    elif callable(content):  # an edit of the trained file
        (art / name).write_text(content((art / name).read_text()))
    else:
        (art / name).write_text(content)
    if command == "detect":
        args = ("detect", "--data", data_dir / "test.csv", "--artifacts", art)
    else:
        args = ("evaluate", "--artifacts", art, "--labels", art / "labels.json")
    assert run(*args) == code
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calibrate", "detect", "evaluate"])
@pytest.mark.parametrize("content,named", [
    ("[]", "JSON object"),
    ('{"window_s": "x"}', "window_s"),
    ('{"stride_s": "x", "window_s": 4.0}', "stride_s"),
    ('{"window_s": 3.3, "stride_s": 1.0}', "whole frame counts"),
    ('{"window_s": true, "stride_s": 1.0}', "window_s"),
    ('{"window_s": 4.0}', "stride_s"),
    (None, "No such file"),
], ids=["list", "window-text", "stride-text", "window-off-grid", "window-bool", "stride-missing",
        "missing"])
def test_malformed_pipeline_exits_4(tmp_path, data_dir, trained_dir, capsys,
                                    command, content, named):
    """A damaged or missing pipeline.json exits 4, naming the file and the field."""
    art = tmp_path / "art"
    art.mkdir()
    for kept in ("model.json", "model.params", "scaler.json", "threshold.json"):
        (art / kept).write_bytes((trained_dir / kept).read_bytes())
    (art / "report.json").write_text("[]\n")
    (art / "scores.csv").write_text("sol,start_t,score\n1,0.0,0.1\n")
    (art / "labels.json").write_text("[]\n")
    if content is not None:
        (art / "pipeline.json").write_text(content)
    if command == "evaluate":
        args = ("evaluate", "--artifacts", art, "--labels", art / "labels.json")
    else:
        args = (command, "--data", data_dir / "train.csv", "--artifacts", art)
    assert run(*args) == 4
    err = capsys.readouterr().err
    assert "pipeline.json" in err and named in err


@pytest.mark.parametrize("edit,named", [
    (lambda rec: [], "JSON object"),
    (lambda rec: {k: v for k, v in rec.items() if k != "scaler_sha256"}, "scaler_sha256"),
    (lambda rec: dict(rec, data_sha256=rec["data_sha256"].upper()), "data_sha256"),
    (lambda rec: dict(rec, params_sha256=7), "params_sha256"),
    (lambda rec: dict(rec, scores_sha256=rec["scores_sha256"][:-1]), "scores_sha256"),
    (lambda rec: dict(rec, stride_s=True), "stride_s"),
    (lambda rec: dict(rec, stride_s="1.0"), "stride_s"),
], ids=["list", "scaler-missing", "data-upper-case", "params-number", "scores-short",
        "stride-bool", "stride-text"])
def test_malformed_calibration_record_exits_4(tmp_path, data_dir, trained_dir, capsys,
                                              edit, named):
    """calibrate refuses a damaged calibration record, naming pipeline.json and the field;
    it does not fall back to scoring the drive afresh."""
    art = tmp_path / "art"
    shutil.copytree(trained_dir, art)
    doc = json.loads((art / "pipeline.json").read_text())
    doc["calibration"] = edit(doc["calibration"])
    (art / "pipeline.json").write_text(json.dumps(doc))
    assert run("calibrate", "--data", data_dir / "train.csv", "--artifacts", art) == 4
    err = capsys.readouterr().err
    assert "pipeline.json" in err and "calibration" in err and named in err


@pytest.mark.parametrize("command,flag,name", [
    ("calibrate", "--data", "train.csv"),
    ("detect", "--data", "test.csv"),
    ("evaluate", "--labels", "labels.json"),
], ids=["calibrate", "detect", "evaluate"])
def test_window_s_is_fixed_by_training(data_dir, trained_dir, command, flag, name):
    """Only train takes --window-s; later commands read it from pipeline.json."""
    with pytest.raises(SystemExit) as exc:
        run(command, flag, data_dir / name, "--artifacts", trained_dir, "--window-s", 4)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["calibrate", "detect"])
@pytest.mark.parametrize("flag,value", [
    ("--percentile", 150), ("--percentile", 0), ("--percentile", "nan"),
    ("--stride-s", 0.3), ("--stride-s", 0), ("--stride-s", "inf"), ("--stride-s", "nan"),
])
def test_scoring_flag_range_exits_2(tmp_path, data_dir, command, flag, value):
    """An out-of-range flag is a usage error, found before any artifact is read."""
    with pytest.raises(SystemExit) as exc:
        run(command, "--data", data_dir / "train.csv", "--artifacts", tmp_path / "absent",
            flag, value)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--epochs", 0), ("--batch-size", 0), ("--val-fraction", 0), ("--val-fraction", 1),
    ("--window-s", 0.3), ("--stride-s", 0.3), ("--seed", -1),
    ("--learning-rate", -0.001), ("--learning-rate", 0), ("--learning-rate", "nan"),
    ("--learning-rate", "inf"),
], ids=["epochs-0", "batch-size-0", "val-fraction-0", "val-fraction-1", "window-s-off-grid",
        "stride-s-off-grid", "seed-negative", "learning-rate-negative", "learning-rate-0",
        "learning-rate-nan", "learning-rate-inf"])
def test_train_flag_range_exits_2(tmp_path, capsys, flag, value):
    """An out-of-range training flag is a usage error, found before the data is read."""
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", tmp_path / "absent.csv", "--artifacts", tmp_path / "art",
            flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "absent.csv" not in err
    assert not (tmp_path / "art").exists()


def test_detect_non_finite_scaler_exits_4(tmp_path, data_dir, trained_dir, capsys):
    """A scaler.json whose min is all NaN is refused at load, naming the file and field."""
    art = tmp_path / "art"
    art.mkdir()
    for kept in ("model.json", "model.params", "threshold.json", "pipeline.json"):
        (art / kept).write_bytes((trained_dir / kept).read_bytes())
    doc = json.loads((trained_dir / "scaler.json").read_text())
    doc["min"] = [float("nan")] * len(doc["min"])
    (art / "scaler.json").write_text(json.dumps(doc))
    assert run("detect", "--data", data_dir / "test.csv", "--artifacts", art) == 4
    err = capsys.readouterr().err
    assert "scaler.json" in err and "field 'min': nan is not finite" in err


@pytest.mark.parametrize("cell,damaged", [
    (1, b"nan"), (1, b"inf"), (1, b"-inf"), (0, b"nan"), (5, b"0.5\xff"),
], ids=["sol-nan", "sol-inf", "sol-minus-inf", "t-nan", "non-utf8"])
def test_detect_bad_telemetry_exits_3(tmp_path, data_dir, trained_dir, capsys, cell, damaged):
    """A damaged cell in data row 2 exits 3 with a message naming the row."""
    lines = (data_dir / "test.csv").read_bytes().split(b"\n")
    cells = lines[3].split(b",")
    cells[cell] = damaged
    lines[3] = b",".join(cells)
    path = tmp_path / "test.csv"
    path.write_bytes(b"\n".join(lines))
    assert run("detect", "--data", path, "--artifacts", trained_dir) == 3
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "calibrate", "detect"])
def test_overflowing_telemetry_exits_3(tmp_path, data_dir, trained_dir, capsys, command):
    """Telemetry so large that the derived power overflows is a data error naming the
    file, the first bad window and the feature, with no numpy warning."""
    name = "test.csv" if command == "detect" else "train.csv"
    lines = (data_dir / name).read_text().split("\n")
    cells = lines[100].split(",")  # data row 99, in windows 9 to 12
    for column in ("current_LF", "voltage_LF"):
        cells[CSV_HEADER.index(column)] = "1e200"
    lines[100] = ",".join(cells)
    path = tmp_path / name
    path.write_text("\n".join(lines))
    art = tmp_path / "art" if command == "train" else trained_dir
    assert run(command, "--data", path, "--artifacts", art) == 3
    err = capsys.readouterr().err
    assert f"{path}: window 9 " in err and "non-finite std(C[LF])" in err
    assert "Warning" not in err
