"""Acceptance-scale constants and the recipe of the detect model.

Standard library only: run.py hashes this file with ``src/`` to key the
cached detect model, so the model is retrained exactly when the program or
this recipe changes.
"""

from __future__ import annotations

ACCEPT_TRAIN_S = 10000
ACCEPT_TEST_S = 2000
ACCEPT_EVENTS = "rockdrop10,mtsc10,wheelie10,highslip5,intenseterrain5"
ACCEPT_DATA_SEED = 7
TRAIN_SEED = 3
#: The detect model is the acceptance (C10) prime model: 200 epochs.
MODEL_EPOCHS = 200


def generate_argv(out, seed: int) -> list[str]:
    """The acceptance-scale ``generate`` command."""
    return ["generate", "--out", str(out), "--seed", str(seed),
            "--train-s", str(ACCEPT_TRAIN_S), "--test-s", str(ACCEPT_TEST_S),
            "--events", ACCEPT_EVENTS]


def model_commands(data, artifacts) -> list[list[str]]:
    """CLI calls that build the detect model's artifacts from nothing."""
    train_csv = str(data / "train.csv")
    return [
        generate_argv(data, ACCEPT_DATA_SEED),
        ["train", "--data", train_csv, "--artifacts", str(artifacts), "--variant", "prime",
         "--seed", str(TRAIN_SEED), "--epochs", str(MODEL_EPOCHS)],
        ["calibrate", "--data", train_csv, "--artifacts", str(artifacts)],
    ]
