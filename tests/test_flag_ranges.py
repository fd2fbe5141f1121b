"""No numeric flag outside its documented range starts any work.

For every numeric flag of generate, train, calibrate and detect, Hypothesis
draws only values outside the flag's range: NaN, infinities, negatives, zero
where it is invalid, and values past a bound. Each run goes through
``cli.main`` in-process, with data and artifact paths that do not exist, and
must exit 2 with no traceback and a message that names the flag or the
``TrainConfig`` or ``WindowSpec`` field the flag sets.
"""

import io
import math
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivemon.cli import main
from drivemon.telemetry import SOL_LIMIT

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def at_most(bound, exclude=False):
    """Floats up to bound, -inf and -0.0 included, and NaN and inf too."""
    return st.floats(max_value=bound, exclude_max=exclude) | NON_FINITE


def outside(lo, hi):
    """Floats at or below lo or at or above hi, and the non-finite ones."""
    return st.floats(max_value=lo) | st.floats(min_value=hi) | NON_FINITE


def below_int(bound):
    """Integers below bound, and text that is no integer."""
    return st.integers(max_value=bound - 1) | NON_FINITE


#: (command, flag, the values drawn, the TrainConfig or WindowSpec field the flag sets).
#: A window or stride under half a frame past its minimum never rounds to a valid one.
FLAGS = [
    ("generate", "--seed", below_int(0), None),
    ("generate", "--train-s", at_most(4.0, exclude=True), None),
    ("generate", "--test-s", at_most(4.0, exclude=True), None),
    ("generate", "--severity", at_most(0.0), None),
    ("generate", "--sol", st.integers(min_value=SOL_LIMIT - 1)
     | st.integers(max_value=-SOL_LIMIT) | NON_FINITE, None),
    ("train", "--seed", below_int(0), "rng_seed"),
    ("train", "--epochs", below_int(1), "epochs"),
    ("train", "--batch-size", below_int(1), "batch_size"),
    ("train", "--learning-rate", at_most(0.0), "learning_rate"),
    ("train", "--val-fraction", outside(0.0, 1.0), "validation_fraction"),
    ("train", "--window-s", at_most(0.125), "window_s"),
    ("train", "--stride-s", at_most(0.0625), "stride_s"),
    ("calibrate", "--percentile", outside(0.0, 100.0), None),
    ("calibrate", "--stride-s", at_most(0.0625), None),
    ("detect", "--percentile", outside(0.0, 100.0), None),
    ("detect", "--stride-s", at_most(0.0625), None),
]


@pytest.fixture(scope="module")
def absent(tmp_path_factory):
    """An empty directory; every path the runs are given lies inside it."""
    return tmp_path_factory.mktemp("flag-ranges")


def _paths(command, root):
    if command == "generate":
        return ["--out", str(root / "out")]
    return ["--data", str(root / "absent.csv"), "--artifacts", str(root / "art")]


@pytest.mark.parametrize("command,flag,values,field", FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _, _ in FLAGS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_out_of_range_flag_exits_2(absent, command, flag, values, field, data):
    value = data.draw(values, label=flag)
    argv = [command, *_paths(command, absent), f"{flag}={value!r}"]
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    message = err.getvalue()
    assert code == 2, message
    assert "Traceback" not in message
    assert flag in message or (field is not None and field in message), message
    assert not any(absent.iterdir())
