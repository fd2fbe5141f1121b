"""Every JSON artifact is read through one declared field table.

The walk damages each field of each table in turn and expects the loader to
refuse it, naming the file and the field. The agreement test checks that each
writer emits exactly the fields its reader's table declares.
"""

import json
import shutil

import pytest

import drivemon as dm
from drivemon import detect, errors, features, net, pipeline, synth
from drivemon.errors import ArtifactError, DataError
from drivemon.synth import AnomalyEvent, NominalProfile, generate_nominal

#: (name, file, field table, keys from the file's JSON document to the object the table reads)
TABLES = [
    ("model", "model.json", net.MODEL_FIELDS, ()),
    ("train_config", "model.json", net.TRAIN_CONFIG_FIELDS, ("train_config",)),
    ("scaler", "scaler.json", features.SCALER_FIELDS, ()),
    ("threshold", "threshold.json", detect.THRESHOLD_FIELDS, ()),
    ("pipeline", "pipeline.json", pipeline.PIPELINE_FIELDS, ()),
    ("calibration", "pipeline.json", pipeline.CALIBRATION_FIELDS, ("calibration",)),
    ("report", "report.json", detect.REPORT_FIELDS, (0,)),
    ("contributor", "report.json", detect.CONTRIBUTOR_FIELDS, (0, "contributors", 0)),
    ("label", "labels.json", synth.LABEL_FIELDS, (0,)),
]

#: Keys a writer emits for people that no loader reads back.
WRITE_ONLY = {"scaler": {"constant"}, "pipeline": {"variant", "seed"}}

#: Each file's loader, and the error class its faults raise.
LOADERS = {
    "model.json": (lambda art: net.load_model(art / "model.json"), ArtifactError),
    "scaler.json": (lambda art: features.MinMaxScaler.load(art / "scaler.json"), ArtifactError),
    "threshold.json": (lambda art: detect.Threshold.load(art / "threshold.json"), ArtifactError),
    "pipeline.json": (pipeline.load_bundle, ArtifactError),
    "report.json": (lambda art: detect.read_report_json(art / "report.json"), ArtifactError),
    "labels.json": (lambda art: synth.read_labels(art / "labels.json"), DataError),
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One of each JSON artifact as its writer leaves it: a 1-epoch prime fit on a 60 s
    drive, then a threshold, a one-flag report and two labels, one naming a wheel."""
    art = tmp_path_factory.mktemp("fields")
    data = art / "train.csv"
    dm.write_stream(generate_nominal(NominalProfile(duration_s=60.0), 1), data)
    dm.fit_pipeline(data, art, "prime", dm.TrainConfig(rng_seed=1, epochs=1))
    detect.Threshold(percentile=99.9, value=1.5, calibration_size=117).save(art / "threshold.json")
    detect.write_report_json([detect.FlagRecord(sol=1000, start_t=2.0, score=3.0, threshold=1.5,
                                                contributors=(("std(accel[Z])", 2.0),))],
                             art / "report.json")
    synth.write_labels([AnomalyEvent(kind="MTSC", t0=1.0, wheel="LF"),
                        AnomalyEvent(kind="RockDrop", t0=9.0)], art / "labels.json")
    return art


def _target(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def test_every_table_is_walked():
    """A field table added to the package without a row in TABLES fails here."""
    declared = {id(value) for module in (detect, errors, features, net, pipeline, synth)
                for name, value in vars(module).items()
                if name.endswith("_FIELDS") and isinstance(value, dict)}
    assert declared == {id(table) for _, _, table, _ in TABLES}


def _damages():
    for name, file, table, path in TABLES:
        for key, parse in table.items():
            # an absent optional field reads as its default, so removing it is no damage
            for damage in ("object",) if isinstance(parse, tuple) else ("missing", "object"):
                yield pytest.param(file, path, key, damage, id=f"{name}-{key}-{damage}")


@pytest.mark.parametrize("file,path,key,damage", list(_damages()))
def test_every_field_fails_loudly(tmp_path, written, file, path, key, damage):
    """A removed field, or one set to {}, raises the file's error naming the file and
    the field, before any later check can blame something else."""
    for name in ("model.json", "model.params", "scaler.json", file):
        shutil.copyfile(written / name, tmp_path / name)
    doc = json.loads((tmp_path / file).read_text())
    if damage == "missing":
        del _target(doc, path)[key]
    else:
        _target(doc, path)[key] = {}
    (tmp_path / file).write_text(json.dumps(doc))
    load, error = LOADERS[file]
    with pytest.raises(error) as raised:
        load(tmp_path)
    message = str(raised.value)
    assert file in message and repr(key) in message, message


@pytest.mark.parametrize("name,file,table,path", TABLES, ids=[t[0] for t in TABLES])
def test_writer_emits_the_declared_fields(written, name, file, table, path):
    """A field added to a writer but not to its reader's table, or the reverse, fails."""
    doc = _target(json.loads((written / file).read_text()), path)
    assert set(doc) - WRITE_ONLY.get(name, set()) == set(table)
    assert WRITE_ONLY.get(name, set()) <= set(doc)


def test_written_artifacts_load(written):
    """The damage-free files load, so each walk case fails for its own damage alone."""
    for file, (load, _) in LOADERS.items():
        load(written)
